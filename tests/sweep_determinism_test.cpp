// run_sweep() promises determinism regardless of thread count: the (size x
// scheme) jobs are independent and results land in preallocated slots, so a
// threads=1 run and a threads=8 run over the same trace must be *bitwise*
// identical — gains, metrics, and the shared trace analysis alike. This
// pins the contract after the shared-TraceStats refactor (trace analyzed
// once, handed to every job).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"

namespace {

using namespace webcache;

void expect_identical(const sim::Metrics& a, const sim::Metrics& b, const char* where) {
  EXPECT_EQ(a.requests, b.requests) << where;
  EXPECT_EQ(a.hits_browser, b.hits_browser) << where;
  EXPECT_EQ(a.hits_local_proxy, b.hits_local_proxy) << where;
  EXPECT_EQ(a.hits_local_p2p, b.hits_local_p2p) << where;
  EXPECT_EQ(a.hits_remote_proxy, b.hits_remote_proxy) << where;
  EXPECT_EQ(a.hits_remote_p2p, b.hits_remote_p2p) << where;
  EXPECT_EQ(a.server_fetches, b.server_fetches) << where;
  // Bitwise: no tolerance. Threading must not change summation order.
  EXPECT_EQ(a.total_latency, b.total_latency) << where;
  EXPECT_EQ(a.wasted_p2p_latency, b.wasted_p2p_latency) << where;
}

TEST(SweepDeterminism, SingleThreadAndEightThreadsBitwiseIdentical) {
  workload::ProWGenConfig wl;
  wl.total_requests = 20'000;
  wl.distinct_objects = 2'000;
  const auto trace = workload::ProWGen(wl).generate();

  core::SweepConfig cfg;  // all seven schemes
  cfg.cache_percents = {20.0, 60.0};

  cfg.threads = 1;
  const auto serial = core::run_sweep(trace, cfg);
  cfg.threads = 8;
  const auto parallel = core::run_sweep(trace, cfg);

  ASSERT_EQ(serial.cache_percents, parallel.cache_percents);
  ASSERT_EQ(serial.schemes, parallel.schemes);
  EXPECT_EQ(serial.infinite_cache_size, parallel.infinite_cache_size);
  EXPECT_EQ(serial.client_cache_capacity, parallel.client_cache_capacity);

  ASSERT_EQ(serial.gains.size(), parallel.gains.size());
  for (std::size_t i = 0; i < serial.gains.size(); ++i) {
    EXPECT_EQ(serial.gains[i], parallel.gains[i]) << "cache size row " << i;
  }

  ASSERT_EQ(serial.baseline.size(), parallel.baseline.size());
  for (std::size_t i = 0; i < serial.baseline.size(); ++i) {
    expect_identical(serial.baseline[i], parallel.baseline[i], "baseline");
  }
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    ASSERT_EQ(serial.metrics[i].size(), parallel.metrics[i].size());
    for (std::size_t j = 0; j < serial.metrics[i].size(); ++j) {
      expect_identical(serial.metrics[i][j], parallel.metrics[i][j], "metrics");
    }
  }
}

}  // namespace
