// Determinism contract of the intra-run sharded engine (SimConfig::
// sim_shards): for every scheme, every export must be byte-identical for ANY
// shard count >= 1 — with and without churn/loss, replaying in memory or
// streamed from a compiled .wct with a small replay chunk. Unsupported
// configurations (FC/FC-EC, snapshots, tracer, audit hooks, single proxy)
// must fall back to the sequential engine bit-exactly. Both engines run the
// same scheme kernels, so at shard_epoch = 1 the sharded engine must
// reproduce the sequential one (the cross-engine oracle below). Also the
// regression gate for the multi-word residency table: cooperative runs must
// work at any proxy count and stay shard-count independent there.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/churn_schedule.hpp"
#include "obs/registry.hpp"
#include "sim/residency_table.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"
#include "workload/wctrace.hpp"

namespace {

using namespace webcache;

workload::Trace shard_trace() {
  workload::ProWGenConfig wl;
  wl.total_requests = 30'000;
  wl.distinct_objects = 3'000;
  wl.seed = 2003;
  return workload::ProWGen(wl).generate();
}

sim::SimConfig shard_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_proxies = 8;
  cfg.proxy_capacity = 150;
  cfg.clients_per_cluster = 20;
  cfg.client_cache_capacity = 4;
  cfg.shard_epoch = 1024;  // several epochs over 30k requests
  return cfg;
}

/// Runs `cfg` over `trace` and returns the full registry JSON export.
std::string export_of(sim::SimConfig cfg, const workload::Trace& trace) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  std::ostringstream out;
  cfg.registry->write_json(out, "sharded_determinism");
  return out.str();
}

std::string export_of(sim::SimConfig cfg, const workload::TraceSource& source) {
  cfg.registry = std::make_shared<obs::Registry>();
  sim::Simulator simulator(cfg, source);
  (void)simulator.run();
  std::ostringstream out;
  cfg.registry->write_json(out, "sharded_determinism");
  return out.str();
}

std::vector<sim::Scheme> all_schemes_plus_squirrel() {
  std::vector<sim::Scheme> schemes(sim::kAllSchemes.begin(), sim::kAllSchemes.end());
  schemes.push_back(sim::Scheme::kSquirrel);
  return schemes;
}

TEST(ShardedDeterminism, ExportsAreByteIdenticalForAnyShardCount) {
  const auto trace = shard_trace();
  for (const auto scheme : all_schemes_plus_squirrel()) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    for (const unsigned shards : {2U, 8U, 13U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, ChurnAndLossRunsAreShardCountIndependent) {
  const auto trace = shard_trace();
  for (const auto scheme : {sim::Scheme::kHierGD, sim::Scheme::kSquirrel}) {
    auto cfg = shard_config(scheme);
    fault::ChurnSpec spec;
    spec.start = 5'000;
    spec.crashes = 4;
    spec.recover_after = 4'000;
    spec.joins = 2;
    spec.repair_every = 7'000;
    cfg.churn_events = fault::make_schedule(spec, trace.size(), cfg.num_proxies,
                                            cfg.clients_per_cluster);
    cfg.p2p_loss_rate = 0.02;
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    for (const unsigned shards : {2U, 8U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
}

TEST(ShardedDeterminism, StreamedWctReplayMatchesInMemoryAtEveryShardCount) {
  const auto trace = shard_trace();
  const std::string path = ::testing::TempDir() + "sharded_determinism.wct";
  workload::write_wctrace_file(path, trace);
  const workload::MmapTraceSource source(path);

  for (const auto scheme : {sim::Scheme::kSC, sim::Scheme::kHierGD}) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 1;
    const std::string reference = export_of(cfg, trace);
    // A replay chunk far smaller than the epoch forces many windows per
    // epoch; chunking must never leak into results.
    cfg.replay_chunk = 512;
    for (const unsigned shards : {1U, 8U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(reference, export_of(cfg, source))
          << sim::to_string(scheme) << " shards=" << shards;
    }
  }
  std::filesystem::remove(path);
}

TEST(ShardedDeterminism, UnsupportedConfigsFallBackToTheSequentialEngine) {
  const auto trace = shard_trace();

  // FC's clairvoyant coordinator is inherently global.
  auto fc = shard_config(sim::Scheme::kFC);
  EXPECT_FALSE(sim::Simulator::sharding_supported(fc));
  const std::string fc_seq = export_of(fc, trace);
  fc.sim_shards = 8;
  EXPECT_EQ(fc_seq, export_of(fc, trace));

  // Interval snapshots tick per request in trace order.
  auto snap = shard_config(sim::Scheme::kSC);
  snap.snapshot_interval = 1'000;
  EXPECT_FALSE(sim::Simulator::sharding_supported(snap));

  // A single proxy has no clusters to partition.
  auto solo = shard_config(sim::Scheme::kHierGD);
  solo.num_proxies = 1;
  EXPECT_FALSE(sim::Simulator::sharding_supported(solo));

  // The supported shapes report so.
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kNC)));
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kHierGD)));
  EXPECT_TRUE(sim::Simulator::sharding_supported(shard_config(sim::Scheme::kSquirrel)));
}

TEST(ShardedDeterminism, ShardedRunStillServesEveryRequest) {
  const auto trace = shard_trace();
  for (const auto scheme : all_schemes_plus_squirrel()) {
    auto cfg = shard_config(scheme);
    cfg.sim_shards = 8;
    cfg.registry = std::make_shared<obs::Registry>();
    const auto metrics = sim::run_simulation(cfg, trace);
    EXPECT_EQ(metrics.requests, trace.size()) << sim::to_string(scheme);
    EXPECT_EQ(metrics.total_hits() + metrics.server_fetches, metrics.requests)
        << sim::to_string(scheme);
    EXPECT_EQ(cfg.registry->counter_value("sim.requests"), trace.size())
        << sim::to_string(scheme);
  }
}

// --- Cross-engine oracle -----------------------------------------------------

// Both engines run one set of scheme kernels and differ only in how a kernel
// reaches another cluster. At shard_epoch = 1 every digest is refreshed after
// every trace position, so the sharded engine reads exactly the residency the
// sequential engine reads live: every counter must agree. Three known
// divergences are outside this comparison:
//   - float summation order: sharded lanes sum latencies per cluster and fold
//     them in cluster order (the last digits of the sim.* latency gauges);
//   - the loss stream, which is per cluster in the sharded engine (no loss
//     here);
//   - Bloom false positives on remote directories: the sharded push target
//     comes from the exact directory digest (exact directory here), and the
//     sequential engine's remote directory probes show up in
//     cluster*.dir.lookups/positives, which are skipped.
// NC and SC accumulate exactly representable latencies, so their full
// exports must be byte-identical.
TEST(ShardedDeterminism, EpochOneMatchesTheSequentialEngine) {
  const auto trace = shard_trace();
  const auto counters_of = [](const obs::Registry& reg) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& name : reg.counter_names()) {
      const bool probe = name.ends_with(".dir.lookups") || name.ends_with(".dir.positives");
      if (!probe) out.emplace_back(name, reg.counter_value(name));
    }
    return out;
  };
  for (const auto scheme : {sim::Scheme::kNC, sim::Scheme::kSC, sim::Scheme::kNC_EC,
                            sim::Scheme::kSC_EC, sim::Scheme::kHierGD, sim::Scheme::kSquirrel}) {
    auto cfg = shard_config(scheme);
    cfg.shard_epoch = 1;
    cfg.directory = sim::DirectoryKind::kExact;
    cfg.sim_shards = 0;
    cfg.registry = std::make_shared<obs::Registry>();
    const auto sequential = sim::run_simulation(cfg, trace);
    const auto sequential_counters = counters_of(*cfg.registry);
    std::ostringstream sequential_export;
    cfg.registry->write_json(sequential_export, "cross_engine");
    for (const unsigned shards : {1U, 3U}) {
      cfg.sim_shards = shards;
      cfg.registry = std::make_shared<obs::Registry>();
      const auto sharded = sim::run_simulation(cfg, trace);
      const std::string label =
          std::string(sim::to_string(scheme)) + " shards=" + std::to_string(shards);
      EXPECT_EQ(sequential.hits_local_proxy, sharded.hits_local_proxy) << label;
      EXPECT_EQ(sequential.hits_local_p2p, sharded.hits_local_p2p) << label;
      EXPECT_EQ(sequential.hits_remote_proxy, sharded.hits_remote_proxy) << label;
      EXPECT_EQ(sequential.hits_remote_p2p, sharded.hits_remote_p2p) << label;
      EXPECT_EQ(sequential.server_fetches, sharded.server_fetches) << label;
      EXPECT_EQ(sequential_counters, counters_of(*cfg.registry)) << label;
      if (scheme == sim::Scheme::kNC || scheme == sim::Scheme::kSC) {
        std::ostringstream sharded_export;
        cfg.registry->write_json(sharded_export, "cross_engine");
        EXPECT_EQ(sequential_export.str(), sharded_export.str()) << label;
      }
    }
  }
}

// --- ResidencyTable: the cooperation lookups at any proxy count ---------------

TEST(ResidencyTable, RingScanMatchesSingleWordSemanticsBelow64) {
  // Ring order from local+1 upward with wraparound, never returning local —
  // the exact contract of the old 64-bit scan.
  sim::ResidencyTable table(1, 16);
  table.assign(0, 3, true);
  table.assign(0, 10, true);
  EXPECT_EQ(table.first_in_ring(0, 5), 10);
  EXPECT_EQ(table.first_in_ring(0, 10), 3);  // wraps past the top
  EXPECT_EQ(table.first_in_ring(0, 3), 10);
  table.assign(0, 10, false);
  EXPECT_EQ(table.first_in_ring(0, 3), -1);  // only the local bit left
  EXPECT_EQ(sim::ResidencyTable(1, 16).first_in_ring(0, 0), -1);
  EXPECT_EQ(table.first_in_ring(1, 0), -1);  // beyond the universe
}

TEST(ResidencyTable, RingScanCrossesWordBoundaries) {
  sim::ResidencyTable table(1, 300);
  table.assign(0, 2, true);    // word 0
  table.assign(0, 70, true);   // word 1
  table.assign(0, 200, true);  // word 3
  EXPECT_EQ(table.first_in_ring(0, 5), 70);    // higher word first
  EXPECT_EQ(table.first_in_ring(0, 70), 200);  // next word up
  EXPECT_EQ(table.first_in_ring(0, 200), 2);   // wraps to word 0
  EXPECT_EQ(table.first_in_ring(0, 299), 2);
  EXPECT_EQ(table.first_in_ring(0, 0), 2);     // later bit in own word
  table.assign(0, 290, true);  // word 4, past the old 256-cluster ceiling
  EXPECT_EQ(table.first_in_ring(0, 200), 290);
}

TEST(ManyProxies, ShardingIsSupportedAtAnyProxyCount) {
  auto cfg = shard_config(sim::Scheme::kSC);
  for (const unsigned proxies : {72U, 256U, 257U, 300U}) {
    cfg.num_proxies = proxies;  // no digest-width ceiling
    EXPECT_TRUE(sim::Simulator::sharding_supported(cfg)) << proxies;
  }
  auto hier = shard_config(sim::Scheme::kHierGD);
  hier.num_proxies = 72;
  EXPECT_TRUE(sim::Simulator::sharding_supported(hier));
}

TEST(ManyProxies, CooperativeExportsAreShardCountIndependentAt72Proxies) {
  const auto trace = shard_trace();
  for (const unsigned proxies : {72U, 300U}) {
    auto cfg = shard_config(sim::Scheme::kSC);
    cfg.num_proxies = proxies;
    cfg.proxy_capacity = 40;  // smaller per-proxy share over the same universe
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    for (const unsigned shards : {2U, 8U}) {
      if (proxies == 300U && shards == 2U) continue;  // shards 1 vs 8 above 256
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace)) << "proxies=" << proxies << " shards=" << shards;
    }
    // The sequential engine reads the same multi-word residency table; it
    // must still serve every request.
    cfg.sim_shards = 0;
    cfg.registry = std::make_shared<obs::Registry>();
    const auto metrics = sim::run_simulation(cfg, trace);
    EXPECT_EQ(metrics.requests, trace.size()) << proxies;
    EXPECT_EQ(metrics.total_hits() + metrics.server_fetches, metrics.requests) << proxies;
  }
}

}  // namespace
