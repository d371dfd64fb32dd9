#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "workload/prowgen.hpp"
#include "workload/trace_stats.hpp"

namespace webcache::sim {
namespace {

workload::Trace test_trace(std::uint64_t requests = 60'000, ObjectNum objects = 2'000,
                           std::uint64_t seed = 31) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.seed = seed;
  return workload::ProWGen(cfg).generate();
}

SimConfig base_config(Scheme scheme, std::size_t proxy_capacity = 200) {
  SimConfig c;
  c.scheme = scheme;
  c.proxy_capacity = proxy_capacity;
  c.clients_per_cluster = 50;
  c.client_cache_capacity = 2;
  return c;
}

TEST(Simulator, EveryRequestIsAccounted) {
  const auto trace = test_trace();
  for (const auto scheme : kAllSchemes) {
    const auto m = run_simulation(base_config(scheme), trace);
    EXPECT_EQ(m.requests, trace.size()) << to_string(scheme);
    EXPECT_EQ(m.total_hits() + m.server_fetches, trace.size()) << to_string(scheme);
    EXPECT_GT(m.mean_latency(), 0.0) << to_string(scheme);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto trace = test_trace();
  for (const auto scheme : kAllSchemes) {
    const auto a = run_simulation(base_config(scheme), trace);
    const auto b = run_simulation(base_config(scheme), trace);
    EXPECT_EQ(a.total_latency, b.total_latency) << to_string(scheme);
    EXPECT_EQ(a.hits_local_proxy, b.hits_local_proxy) << to_string(scheme);
    EXPECT_EQ(a.hits_local_p2p, b.hits_local_p2p) << to_string(scheme);
    EXPECT_EQ(a.server_fetches, b.server_fetches) << to_string(scheme);
  }
}

TEST(Simulator, MeanLatencyBracketedByModelExtremes) {
  const auto trace = test_trace();
  const auto cfg = base_config(Scheme::kHierGD);
  const auto m = run_simulation(cfg, trace);
  EXPECT_GE(m.mean_latency(), cfg.latencies.request_latency(net::ServedFrom::kLocalProxy));
  EXPECT_LE(m.mean_latency(), cfg.latencies.request_latency(net::ServedFrom::kOriginServer) +
                                  cfg.latencies.p2p_fetch());
}

TEST(Simulator, NcNeverUsesCooperativePaths) {
  const auto trace = test_trace();
  const auto m = run_simulation(base_config(Scheme::kNC), trace);
  EXPECT_EQ(m.hits_remote_proxy, 0u);
  EXPECT_EQ(m.hits_local_p2p, 0u);
  EXPECT_EQ(m.hits_remote_p2p, 0u);
}

TEST(Simulator, NcEcUsesLocalP2pOnly) {
  const auto trace = test_trace();
  const auto m = run_simulation(base_config(Scheme::kNC_EC), trace);
  EXPECT_GT(m.hits_local_p2p, 0u);
  EXPECT_EQ(m.hits_remote_proxy, 0u);
  EXPECT_EQ(m.hits_remote_p2p, 0u);
}

TEST(Simulator, CooperativeSchemesUseRemotePaths) {
  const auto trace = test_trace();
  for (const auto scheme : {Scheme::kSC, Scheme::kFC, Scheme::kSC_EC, Scheme::kFC_EC,
                            Scheme::kHierGD}) {
    const auto m = run_simulation(base_config(scheme), trace);
    EXPECT_GT(m.hits_remote_proxy + m.hits_remote_p2p, 0u) << to_string(scheme);
  }
}

TEST(Simulator, EcSchemesBeatTheirBaseSchemes) {
  // The paper's central claim: exploiting client caches helps, especially
  // with small proxy caches.
  const auto trace = test_trace();
  const std::size_t small_cache = 100;  // ~10% of the per-cluster working set
  const auto nc = run_simulation(base_config(Scheme::kNC, small_cache), trace);
  const auto nc_ec = run_simulation(base_config(Scheme::kNC_EC, small_cache), trace);
  const auto sc = run_simulation(base_config(Scheme::kSC, small_cache), trace);
  const auto sc_ec = run_simulation(base_config(Scheme::kSC_EC, small_cache), trace);
  const auto fc = run_simulation(base_config(Scheme::kFC, small_cache), trace);
  const auto fc_ec = run_simulation(base_config(Scheme::kFC_EC, small_cache), trace);
  EXPECT_LT(nc_ec.mean_latency(), nc.mean_latency());
  EXPECT_LT(sc_ec.mean_latency(), sc.mean_latency());
  EXPECT_LT(fc_ec.mean_latency(), fc.mean_latency());
}

TEST(Simulator, CooperationOrderingHolds) {
  // More cooperation, better latency: FC <= SC <= NC (as mean latency).
  const auto trace = test_trace();
  const auto nc = run_simulation(base_config(Scheme::kNC), trace);
  const auto sc = run_simulation(base_config(Scheme::kSC), trace);
  const auto fc = run_simulation(base_config(Scheme::kFC), trace);
  EXPECT_LT(sc.mean_latency(), nc.mean_latency());
  EXPECT_LT(fc.mean_latency(), sc.mean_latency());
}

TEST(Simulator, HierGdBeatsSimpleCooperation) {
  const auto trace = test_trace();
  const auto sc = run_simulation(base_config(Scheme::kSC), trace);
  const auto hier = run_simulation(base_config(Scheme::kHierGD), trace);
  EXPECT_LT(hier.mean_latency(), sc.mean_latency());
}

TEST(Simulator, HierGdTracksIdealUnifiedBound) {
  // FC-EC is the paper's idealized coordinated bound. Hier-GD must land in
  // its neighbourhood — it can even edge past it on strongly temporal
  // workloads, because greedy-dual exploits recency that perfect-frequency
  // cost-benefit ignores (documented in EXPERIMENTS.md). What it must NOT
  // do is trail the bound badly.
  const auto trace = test_trace();
  const auto fc_ec = run_simulation(base_config(Scheme::kFC_EC), trace);
  const auto hier = run_simulation(base_config(Scheme::kHierGD), trace);
  // FC-EC's values are clairvoyant (future frequencies), so at small caches
  // a realizable online policy trails it by a real margin; 35% bounds the
  // gap across the tested configurations.
  EXPECT_LT(hier.mean_latency(), fc_ec.mean_latency() * 1.35);
  EXPECT_GT(hier.mean_latency(), fc_ec.mean_latency() * 0.80);
}

TEST(Simulator, LargerProxyCachesReduceLatency) {
  const auto trace = test_trace();
  for (const auto scheme : {Scheme::kNC, Scheme::kSC, Scheme::kHierGD}) {
    const auto small = run_simulation(base_config(scheme, 100), trace);
    const auto large = run_simulation(base_config(scheme, 800), trace);
    EXPECT_LT(large.mean_latency(), small.mean_latency()) << to_string(scheme);
  }
}

TEST(Simulator, MoreClientsHelpHierGd) {
  const auto trace = test_trace();
  auto few = base_config(Scheme::kHierGD, 100);
  few.clients_per_cluster = 20;
  auto many = base_config(Scheme::kHierGD, 100);
  many.clients_per_cluster = 200;
  const auto m_few = run_simulation(few, trace);
  const auto m_many = run_simulation(many, trace);
  EXPECT_LT(m_many.mean_latency(), m_few.mean_latency());
}

TEST(Simulator, HierGdMessageAccountingConsistent) {
  const auto trace = test_trace();
  const auto m = run_simulation(base_config(Scheme::kHierGD), trace);
  // Every local P2P hit was a directory true positive followed by a removal.
  EXPECT_GE(m.messages.directory_true_positives,
            m.hits_local_p2p + m.hits_remote_p2p);
  // Every destage was piggybacked.
  EXPECT_GT(m.messages.destage_piggybacked, 0u);
  EXPECT_EQ(m.messages.destage_dedicated, 0u);
  // Pushes: one transfer per remote P2P hit.
  EXPECT_EQ(m.messages.push_transfers, m.hits_remote_p2p);
  EXPECT_GE(m.messages.push_requests, m.messages.push_transfers);
  // Exact directory: no false positives.
  EXPECT_EQ(m.messages.directory_false_positives, 0u);
  EXPECT_EQ(m.wasted_p2p_latency, 0.0);
  // Store receipts drive directory adds.
  EXPECT_EQ(m.messages.directory_adds, m.messages.store_receipts);
  // Pastry hops were recorded.
  EXPECT_GT(m.p2p_hops.count(), 0u);
}

TEST(Simulator, BloomDirectoryCausesBoundedWaste) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kHierGD);
  cfg.directory = DirectoryKind::kBloom;
  cfg.bloom_target_fpr = 0.05;
  const auto m = run_simulation(cfg, trace);
  EXPECT_GT(m.messages.directory_false_positives, 0u);
  EXPECT_GT(m.wasted_p2p_latency, 0.0);
  // Waste must stay a small fraction of total latency at 5% FPR.
  EXPECT_LT(m.wasted_p2p_latency, 0.05 * m.total_latency);

  // And the bloom run must still be broadly as effective as exact.
  auto exact_cfg = base_config(Scheme::kHierGD);
  const auto exact = run_simulation(exact_cfg, trace);
  EXPECT_LT(m.mean_latency(), exact.mean_latency() * 1.1);
}

TEST(Simulator, BloomDirectoryNeverGoesFalseNegative) {
  // Regression: self-healing a false positive must not erase() a key the
  // counting Bloom filter never inserted — shared counters would decay into
  // false negatives, silently hiding live P2P objects from the proxy.
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kHierGD);
  cfg.directory = DirectoryKind::kBloom;
  cfg.bloom_target_fpr = 0.10;  // frequent false positives
  Simulator sim(cfg, trace);
  const auto m = sim.run();
  ASSERT_GT(m.messages.directory_false_positives, 0u);  // the hazard occurred
  for (unsigned p = 0; p < cfg.num_proxies; ++p) {
    const auto* p2p = sim.p2p_of(p);
    const auto* dir = sim.directory_of(p);
    for (ObjectNum o = 0; o < trace.distinct_objects; ++o) {
      if (p2p->contains(o)) {
        ASSERT_TRUE(dir->may_contain(o)) << "false negative for object " << o;
      }
    }
  }
}

TEST(Simulator, SingleProxyRequiresNonCooperativeScheme) {
  const auto trace = test_trace();
  auto cfg = base_config(Scheme::kSC);
  cfg.num_proxies = 1;
  EXPECT_THROW(Simulator(cfg, trace), std::invalid_argument);
  cfg.scheme = Scheme::kNC;
  EXPECT_NO_THROW(Simulator(cfg, trace));
  cfg.scheme = Scheme::kNC_EC;
  EXPECT_NO_THROW(Simulator(cfg, trace));
  cfg.num_proxies = 0;
  EXPECT_THROW(Simulator(cfg, trace), std::invalid_argument);
}

TEST(Simulator, RunIsOneShot) {
  const auto trace = test_trace(5'000, 500);
  Simulator sim(base_config(Scheme::kNC), trace);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Simulator, IntrospectionAccessors) {
  const auto trace = test_trace(5'000, 500);
  Simulator hier(base_config(Scheme::kHierGD), trace);
  EXPECT_NE(hier.p2p_of(0), nullptr);
  EXPECT_NE(hier.directory_of(1), nullptr);
  EXPECT_EQ(hier.p2p_of(9), nullptr);
  Simulator nc(base_config(Scheme::kNC), trace);
  EXPECT_EQ(nc.p2p_of(0), nullptr);
}

TEST(Simulator, LatencyGainMatchesHandComputation) {
  const auto trace = test_trace();
  const auto nc = run_simulation(base_config(Scheme::kNC), trace);
  const auto sc = run_simulation(base_config(Scheme::kSC), trace);
  const double gain = latency_gain(nc, sc);
  EXPECT_NEAR(gain, 1.0 - sc.mean_latency() / nc.mean_latency(), 1e-12);
  EXPECT_THROW((void)latency_gain(Metrics{}, sc), std::invalid_argument);
}

class SchemeParam : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeParam, ProxyClusterSizesRun) {
  const auto trace = test_trace(30'000, 1'500);
  for (const unsigned proxies : {2u, 5u}) {
    auto cfg = base_config(GetParam(), 100);
    cfg.num_proxies = proxies;
    const auto m = run_simulation(cfg, trace);
    EXPECT_EQ(m.requests, trace.size());
  }
}

TEST_P(SchemeParam, HitLatencyIdentity) {
  // total latency == sum over outcomes of count * model latency (+ waste).
  const auto trace = test_trace(30'000, 1'500);
  const auto cfg = base_config(GetParam());
  const auto m = run_simulation(cfg, trace);
  const auto& L = cfg.latencies;
  const double reconstructed =
      static_cast<double>(m.hits_local_proxy) * L.request_latency(net::ServedFrom::kLocalProxy) +
      static_cast<double>(m.hits_local_p2p) * L.request_latency(net::ServedFrom::kLocalP2P) +
      static_cast<double>(m.hits_remote_proxy) *
          L.request_latency(net::ServedFrom::kRemoteProxy) +
      static_cast<double>(m.hits_remote_p2p) * L.request_latency(net::ServedFrom::kRemoteP2P) +
      static_cast<double>(m.server_fetches) *
          L.request_latency(net::ServedFrom::kOriginServer) +
      m.wasted_p2p_latency;
  EXPECT_NEAR(m.total_latency, reconstructed, 1e-6 * m.total_latency + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeParam, ::testing::ValuesIn(kAllSchemes),
                         [](const auto& test_info) {
                           std::string name{to_string(test_info.param)};
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace webcache::sim
