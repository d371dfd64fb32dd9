// Tests for the Squirrel extension scheme (decentralized proxy-less P2P web
// cache, after Iyer/Rowstron/Druschel PODC'02) — implemented to quantify
// the paper's Section 6 comparison.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace webcache::sim {
namespace {

workload::Trace test_trace(std::uint64_t requests = 60'000, ObjectNum objects = 2'000) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.seed = 17;
  return workload::ProWGen(cfg).generate();
}

SimConfig squirrel_config(ClientNum clients = 100, std::size_t per_client = 5) {
  SimConfig c;
  c.scheme = Scheme::kSquirrel;
  c.clients_per_cluster = clients;
  c.client_cache_capacity = per_client;
  // proxy_capacity is irrelevant (no proxy cache exists).
  return c;
}

TEST(Squirrel, SchemeMetadata) {
  EXPECT_EQ(to_string(Scheme::kSquirrel), "Squirrel");
  EXPECT_EQ(scheme_from_string("Squirrel"), std::optional<Scheme>(Scheme::kSquirrel));
  EXPECT_TRUE(exploits_client_caches(Scheme::kSquirrel));
  EXPECT_FALSE(proxies_cooperate(Scheme::kSquirrel));
  // Squirrel is an extension, not one of the paper's seven.
  for (const auto s : kAllSchemes) EXPECT_NE(s, Scheme::kSquirrel);
}

TEST(Squirrel, EveryRequestIsAccounted) {
  const auto trace = test_trace();
  const auto m = run_simulation(squirrel_config(), trace);
  EXPECT_EQ(m.requests, trace.size());
  EXPECT_EQ(m.total_hits() + m.server_fetches, trace.size());
  // All hits are home-node hits; there is no proxy tier.
  EXPECT_EQ(m.hits_local_proxy, 0u);
  EXPECT_EQ(m.hits_remote_proxy, 0u);
  EXPECT_EQ(m.hits_remote_p2p, 0u);
  EXPECT_GT(m.hits_local_p2p, 0u);
}

TEST(Squirrel, WorksWithASingleOrganization) {
  const auto trace = test_trace(20'000, 1'000);
  auto cfg = squirrel_config();
  cfg.num_proxies = 1;
  const auto m = run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, trace.size());
}

TEST(Squirrel, LatencyIsHomeHitOrHomeMissModel) {
  const auto trace = test_trace();
  const auto cfg = squirrel_config();
  const auto m = run_simulation(cfg, trace);
  const double reconstructed =
      static_cast<double>(m.hits_local_p2p) * cfg.latencies.p2p_fetch() +
      static_cast<double>(m.server_fetches) *
          (cfg.latencies.p2p_fetch() + cfg.latencies.server());
  EXPECT_NEAR(m.total_latency, reconstructed, 1e-6 * m.total_latency);
}

TEST(Squirrel, PoolingBeatsNothingButTrailsProxySchemes) {
  // The paper's Section 6 position, quantified: Squirrel improves on having
  // no shared cache at all, but a same-budget Hier-GD deployment (proxy +
  // client caches, inter-proxy cooperation) outperforms it because the
  // proxy tier serves at Tl < Tp2p and cooperating organizations share.
  const auto trace = test_trace();

  auto squirrel = squirrel_config(100, 5);
  const auto m_squirrel = run_simulation(squirrel, trace);

  // Status quo: each client fends for itself; approximate with NC and a
  // tiny proxy (the "no shared cache" floor is even weaker — NC suffices).
  SimConfig nc;
  nc.scheme = Scheme::kNC;
  nc.proxy_capacity = 1;
  nc.clients_per_cluster = 100;
  const auto m_floor = run_simulation(nc, trace);
  EXPECT_LT(m_squirrel.mean_latency(), m_floor.mean_latency());

  // Same client-cache budget, plus a proxy of half the pooled capacity.
  SimConfig hier;
  hier.scheme = Scheme::kHierGD;
  hier.clients_per_cluster = 100;
  hier.client_cache_capacity = 5;
  hier.proxy_capacity = 250;
  const auto m_hier = run_simulation(hier, trace);
  EXPECT_LT(m_hier.mean_latency(), m_squirrel.mean_latency());
}

TEST(Squirrel, NoCrossOrganizationSharing) {
  // Two organizations with identical streams: misses in one are never
  // served by the other (the firewall argument of Section 6).
  const auto trace = test_trace();
  auto cfg = squirrel_config();
  cfg.num_proxies = 2;
  const auto m = run_simulation(cfg, trace);
  EXPECT_EQ(m.hits_remote_p2p, 0u);
  EXPECT_EQ(m.hits_remote_proxy, 0u);
}

TEST(Squirrel, MoreClientsMeanMoreHits) {
  const auto trace = test_trace();
  const auto small = run_simulation(squirrel_config(20, 5), trace);
  const auto large = run_simulation(squirrel_config(400, 5), trace);
  EXPECT_LT(large.mean_latency(), small.mean_latency());
}

TEST(Squirrel, SupportsFailureInjection) {
  const auto trace = test_trace();
  auto cfg = squirrel_config();
  for (ClientNum c = 0; c < 20; ++c) {
    cfg.churn_events.push_back({trace.size() / 2, 0, c, fault::ChurnAction::kCrash});
  }
  const auto m = run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, trace.size());
  const auto healthy = run_simulation(squirrel_config(), trace);
  EXPECT_GE(m.mean_latency(), healthy.mean_latency());
}

}  // namespace
}  // namespace webcache::sim
