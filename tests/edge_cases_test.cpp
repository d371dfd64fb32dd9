// Edge-path coverage: the corners the main suites do not reach.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace webcache {
namespace {

workload::Trace tiny_trace() {
  workload::ProWGenConfig cfg;
  cfg.total_requests = 4'000;
  cfg.distinct_objects = 300;
  cfg.seed = 55;
  return workload::ProWGen(cfg).generate();
}

TEST(EdgeCases, SingleClientCluster) {
  const auto trace = tiny_trace();
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kHierGD;
  cfg.proxy_capacity = 20;
  cfg.clients_per_cluster = 1;  // a P2P "cluster" of one machine
  cfg.client_cache_capacity = 5;
  const auto m = sim::run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, trace.size());
  EXPECT_GT(m.hits_local_p2p, 0u);  // the lone client cache still serves
}

TEST(EdgeCases, TinyProxyCache) {
  const auto trace = tiny_trace();
  for (const auto scheme : sim::kAllSchemes) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.proxy_capacity = 1;
    cfg.clients_per_cluster = 10;
    cfg.client_cache_capacity = 1;
    const auto m = sim::run_simulation(cfg, trace);
    EXPECT_EQ(m.requests, trace.size()) << sim::to_string(scheme);
  }
}

TEST(EdgeCases, ManyProxiesFewRequests) {
  const auto trace = tiny_trace();
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSC;
  cfg.num_proxies = 16;
  cfg.proxy_capacity = 10;
  const auto m = sim::run_simulation(cfg, trace);
  EXPECT_EQ(m.requests, trace.size());
  EXPECT_GT(m.hits_remote_proxy, 0u);
}

TEST(EdgeCases, MetricsSummaryMentionsEveryOutcome) {
  const auto trace = tiny_trace();
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSC_EC;
  cfg.proxy_capacity = 20;
  const auto m = sim::run_simulation(cfg, trace);
  const auto text = m.summary();
  for (const char* needle : {"requests", "mean latency", "local proxy hits",
                             "local P2P hits", "remote proxy hits", "server fetches",
                             "overall hit ratio"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(EdgeCases, SweepWithSquirrelIncluded) {
  const auto trace = tiny_trace();
  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kNC, sim::Scheme::kSquirrel};
  cfg.cache_percents = {50};
  const auto r = core::run_sweep(trace, cfg);
  EXPECT_EQ(r.gains[0].size(), 2u);
  EXPECT_EQ(r.gains[0][0], 0.0);  // NC vs itself
}

// A percentage whose capacity does not fit size_t is an error, not an
// undefined double -> size_t cast; in range, capacities round to nearest.
TEST(EdgeCases, SweepRejectsCachePercentBeyondSizeT) {
  const auto trace = tiny_trace();
  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kSC};
  cfg.cache_percents = {1e300};
  EXPECT_THROW((void)core::run_sweep(trace, cfg), std::invalid_argument);
  EXPECT_EQ(core::capacity_from_percent(33, 499), 165u);
  EXPECT_EQ(core::capacity_from_percent(0.01, 499), 1u);
}

TEST(EdgeCases, CsvExportIsWellFormed) {
  const auto trace = tiny_trace();
  core::SweepConfig cfg;
  cfg.schemes = {sim::Scheme::kSC};
  cfg.cache_percents = {30, 70};
  const auto r = core::run_sweep(trace, cfg);
  std::ostringstream out;
  core::write_gain_csv(out, r);
  const auto text = out.str();
  // Header + one row per (size, scheme).
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("cache_percent,scheme"), std::string::npos);
  EXPECT_NE(text.find("30,SC"), std::string::npos);
  EXPECT_NE(text.find("70,SC"), std::string::npos);
  // Every row has the same column count.
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);
  const auto columns = std::count(line.begin(), line.end(), ',');
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), columns);
  }
}

TEST(EdgeCases, ZeroBrowserCapacityIsDisabled) {
  const auto trace = tiny_trace();
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kNC;
  cfg.proxy_capacity = 20;
  cfg.browser_cache_capacity = 0;
  const auto m = sim::run_simulation(cfg, trace);
  EXPECT_EQ(m.hits_browser, 0u);
}

}  // namespace
}  // namespace webcache
