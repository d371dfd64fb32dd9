// End-to-end tests of the observability exports: the simulator's registry
// counters must agree with the Metrics view it returns, the
// "webcache-metrics/1" JSON documents must carry the documented fields,
// interval snapshots must land exactly every N requests, and a sweep's
// exported JSON must be byte-identical for any worker-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace {

using namespace webcache;

workload::Trace small_trace() {
  workload::ProWGenConfig wl;
  wl.total_requests = 20'000;
  wl.distinct_objects = 2'000;
  return workload::ProWGen(wl).generate();
}

sim::SimConfig small_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.proxy_capacity = 200;
  cfg.client_cache_capacity = 5;
  return cfg;
}

TEST(MetricsExport, RegistryCountersMatchTheMetricsView) {
  const auto trace = small_trace();
  for (const auto scheme : sim::kAllSchemes) {
    auto cfg = small_config(scheme);
    cfg.registry = std::make_shared<obs::Registry>();
    const auto metrics = sim::run_simulation(cfg, trace);
    const obs::Registry& reg = *cfg.registry;

    EXPECT_EQ(reg.counter_value("sim.requests"), metrics.requests) << sim::to_string(scheme);
    EXPECT_EQ(reg.counter_value("sim.requests"), trace.size()) << sim::to_string(scheme);
    // The view's derived totals must be reconstructible from the counters.
    const std::uint64_t hits = reg.counter_value("sim.hits_browser") +
                               reg.counter_value("sim.hits_local_proxy") +
                               reg.counter_value("sim.hits_local_p2p") +
                               reg.counter_value("sim.hits_remote_proxy") +
                               reg.counter_value("sim.hits_remote_p2p");
    EXPECT_EQ(hits, metrics.total_hits()) << sim::to_string(scheme);
    EXPECT_EQ(hits + reg.counter_value("sim.server_fetches"), metrics.requests)
        << sim::to_string(scheme);
    EXPECT_DOUBLE_EQ(reg.gauge_value("sim.total_latency"), metrics.total_latency)
        << sim::to_string(scheme);
  }
}

TEST(MetricsExport, SingleRunJsonCarriesTheDocumentedFields) {
  const auto trace = small_trace();
  auto cfg = small_config(sim::Scheme::kHierGD);
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);

  std::ostringstream out;
  cfg.registry->write_json(out, "export test");
  const std::string json = out.str();
  for (const char* field :
       {"\"schema\": \"webcache-metrics/1\"", "\"name\": \"export test\"", "\"metrics\":",
        "\"counters\"", "\"gauges\"", "\"stats\"", "\"histograms\"", "\"snapshots\"",
        "\"sim.requests\"", "\"sim.server_fetches\"", "\"sim.total_latency\"",
        "\"net.directory_adds\"", "\"sim.request_latency\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
  // Hier-GD binds per-cluster instruments under the clusterN/proxyN prefixes.
  EXPECT_NE(json.find("cluster0.pastry.messages_routed"), std::string::npos);
  EXPECT_NE(json.find("cluster0.dir."), std::string::npos);
  EXPECT_NE(json.find("proxy0.cache."), std::string::npos);
}

TEST(MetricsExport, SnapshotsLandExactlyEveryInterval) {
  const auto trace = small_trace();
  auto cfg = small_config(sim::Scheme::kSC);
  cfg.registry = std::make_shared<obs::Registry>();
  cfg.snapshot_interval = 4'000;
  (void)sim::run_simulation(cfg, trace);

  const auto& snaps = cfg.registry->snapshots();
  ASSERT_EQ(snaps.size(), trace.size() / 4'000);
  const auto& names = cfg.registry->counter_names();
  const auto col = std::find(names.begin(), names.end(), "sim.requests") - names.begin();
  ASSERT_LT(static_cast<std::size_t>(col), names.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].at, (i + 1) * 4'000);
    // One tick per request -> the requests counter IS the snapshot time.
    ASSERT_LT(static_cast<std::size_t>(col), snaps[i].counters.size());
    EXPECT_EQ(snaps[i].counters[static_cast<std::size_t>(col)], snaps[i].at);
  }
}

TEST(MetricsExport, TracerRecordsOneEventPerRequest) {
  const auto trace = small_trace();
  auto cfg = small_config(sim::Scheme::kSC);
  cfg.registry = std::make_shared<obs::Registry>();
  cfg.trace_capacity = 1'000;  // much smaller than the trace: must wrap
  (void)sim::run_simulation(cfg, trace);

  const auto events = cfg.registry->trace_events();
  ASSERT_EQ(events.size(), 1'000u);
  EXPECT_EQ(cfg.registry->trace_dropped(), trace.size() - 1'000);
  // The tail of the run survives, in chronological order.
  EXPECT_EQ(events.front().time, trace.size() - 1'000);
  EXPECT_EQ(events.back().time, trace.size() - 1);
  for (const auto& e : events) {
    EXPECT_LE(e.code, 5u);  // net::ServedFrom codes 0..5
    EXPECT_GE(e.value, 0.0);
  }
}

TEST(MetricsExport, SweepJsonIsByteIdenticalAcrossThreadCounts) {
  const auto trace = small_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {20.0, 60.0};
  cfg.schemes = {sim::Scheme::kNC, sim::Scheme::kSC, sim::Scheme::kHierGD};
  cfg.collect_observability = true;
  cfg.base.snapshot_interval = 5'000;

  cfg.threads = 1;
  const auto serial = core::run_sweep(trace, cfg);
  cfg.threads = 8;
  const auto parallel = core::run_sweep(trace, cfg);

  std::ostringstream a;
  std::ostringstream b;
  core::write_metrics_json(a, serial, "determinism");
  core::write_metrics_json(b, parallel, "determinism");
  ASSERT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

TEST(MetricsExport, SweepJsonRequiresCollectObservability) {
  const auto trace = small_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {50.0};
  cfg.schemes = {sim::Scheme::kNC};
  const auto result = core::run_sweep(trace, cfg);
  std::ostringstream out;
  EXPECT_THROW(core::write_metrics_json(out, result, "x"), std::logic_error);
}

TEST(MetricsExport, SweepJsonHasOneRunPerSizeAndScheme) {
  const auto trace = small_trace();
  core::SweepConfig cfg;
  cfg.cache_percents = {30.0, 70.0};
  cfg.schemes = {sim::Scheme::kNC, sim::Scheme::kSC_EC};
  cfg.collect_observability = true;
  const auto result = core::run_sweep(trace, cfg);

  std::ostringstream out;
  core::write_metrics_json(out, result, "shape");
  const std::string json = out.str();
  std::size_t runs = 0;
  for (std::size_t pos = 0; (pos = json.find("\"cache_percent\":", pos)) != std::string::npos;
       ++pos) {
    ++runs;
  }
  EXPECT_EQ(runs, 4u);  // 2 sizes x 2 schemes
  EXPECT_NE(json.find("\"scheme\": \"SC-EC\""), std::string::npos);
  EXPECT_NE(json.find("\"infinite_cache_size\":"), std::string::npos);
  EXPECT_NE(json.find("\"latency_gain_percent\":"), std::string::npos);
}

}  // namespace
