// Unit tests for the observability core (obs::Registry): instrument
// registration semantics, read access, interval snapshots, the ring-buffer
// event tracer, the exporters' formatting guarantees, and the
// optional-registry helper components use to fall back to a private one.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/registry.hpp"

namespace {

using namespace webcache;

TEST(ObsRegistry, CounterFindOrCreateReturnsStableReference) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("sim.requests");
  a.inc();
  a.inc(4);
  // Same name -> same instrument; registering more must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  obs::Counter& again = reg.counter("sim.requests");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.counter_value("sim.requests"), 5u);
  EXPECT_EQ(reg.counter_count(), 101u);
}

TEST(ObsRegistry, UnregisteredReadsAreZero) {
  const obs::Registry reg;
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
  EXPECT_EQ(reg.gauge_value("never.registered"), 0.0);
  EXPECT_EQ(reg.find_stat("never.registered"), nullptr);
  EXPECT_EQ(reg.find_histogram("never.registered"), nullptr);
}

TEST(ObsRegistry, GaugeAccumulatesAndResets) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("sim.total_latency");
  g.add(1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  EXPECT_DOUBLE_EQ(reg.gauge_value("sim.total_latency"), 3.75);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(ObsRegistry, HistogramBoundsFixedByFirstRegistration) {
  obs::Registry reg;
  Histogram& h = reg.histogram("sim.p2p_hops", 0.0, 16.0, 16);
  h.add(3.0);
  // A second registration with different bounds returns the existing one.
  Histogram& again = reg.histogram("sim.p2p_hops", 0.0, 99.0, 4);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.lo(), 0.0);
  EXPECT_EQ(again.hi(), 16.0);
  ASSERT_NE(reg.find_histogram("sim.p2p_hops"), nullptr);
  EXPECT_EQ(reg.find_histogram("sim.p2p_hops")->total(), 1u);
}

TEST(ObsRegistry, NamesKeepRegistrationOrder) {
  obs::Registry reg;
  reg.counter("b");
  reg.counter("a");
  reg.gauge("z");
  reg.gauge("y");
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(reg.gauge_names(), (std::vector<std::string>{"z", "y"}));
}

TEST(ObsRegistry, EnsureRegistryPrefersExternal) {
  obs::Registry external;
  std::unique_ptr<obs::Registry> owned;
  obs::Registry& r = obs::ensure_registry(&external, owned);
  EXPECT_EQ(&r, &external);
  EXPECT_EQ(owned, nullptr);
}

TEST(ObsRegistry, EnsureRegistryFallsBackToOwned) {
  std::unique_ptr<obs::Registry> owned;
  obs::Registry& r1 = obs::ensure_registry(nullptr, owned);
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(&r1, owned.get());
  // Idempotent: a second call reuses the same private registry.
  obs::Registry& r2 = obs::ensure_registry(nullptr, owned);
  EXPECT_EQ(&r2, owned.get());
}

TEST(ObsRegistry, FormatDoubleIsLocaleIndependentShortestForm) {
  EXPECT_EQ(obs::format_double(0.0), "0");
  EXPECT_EQ(obs::format_double(1.5), "1.5");
  EXPECT_EQ(obs::format_double(-2.25), "-2.25");
  EXPECT_EQ(obs::format_double(10.0), "10");
}

TEST(ObsRegistry, JsonExportContainsSchemaAndSortedInstruments) {
  obs::Registry reg;
  reg.counter("zeta").inc(2);
  reg.counter("alpha").inc(1);
  reg.gauge("g").set(1.5);
  std::ostringstream out;
  reg.write_json(out, "unit \"quoted\" test");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"webcache-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << "name must be escaped";
  // Counter maps are emitted name-sorted regardless of registration order.
  const auto alpha = json.find("\"alpha\": 1");
  const auto zeta = json.find("\"zeta\": 2");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
}

TEST(ObsRegistry, CsvExportListsEveryInstrument) {
  obs::Registry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(0.5);
  reg.stat("s").add(2.0);
  reg.histogram("h", 0.0, 10.0, 5).add(1.0);
  std::ostringstream out;
  reg.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("counter,c,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,0.5"), std::string::npos);
  EXPECT_NE(csv.find("stat,s.count,1"), std::string::npos);
  EXPECT_NE(csv.find("stat,s.mean,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.lo,0"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.bucket0,1"), std::string::npos);
}

TEST(ObsSnapshots, TakenExactlyEveryInterval) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g");
  reg.set_snapshot_interval(10);
  for (int t = 0; t < 35; ++t) {
    c.inc();
    g.add(0.5);
    reg.tick();
  }
  const auto& snaps = reg.snapshots();
  ASSERT_EQ(snaps.size(), 3u);  // at ticks 10, 20, 30 — 35 never completes a 4th
  EXPECT_EQ(snaps[0].at, 10u);
  EXPECT_EQ(snaps[1].at, 20u);
  EXPECT_EQ(snaps[2].at, 30u);
  ASSERT_EQ(snaps[1].counters.size(), 1u);
  EXPECT_EQ(snaps[1].counters[0], 20u);
  ASSERT_EQ(snaps[2].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[2].gauges[0], 15.0);
}

TEST(ObsSnapshots, DisabledByDefault) {
  obs::Registry reg;
  reg.counter("c");
  for (int t = 0; t < 100; ++t) reg.tick();
  EXPECT_TRUE(reg.snapshots().empty());
}

TEST(ObsSnapshots, CsvHasColumnsForCountersAndGauges) {
  obs::Registry reg;
  reg.counter("c").inc();
  reg.gauge("g").set(2.5);
  reg.set_snapshot_interval(1);
  reg.tick();
  std::ostringstream out;
  reg.write_snapshots_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("at,c,g"), std::string::npos);
  EXPECT_NE(csv.find("1,1,2.5"), std::string::npos);
}

TEST(ObsTracer, RingKeepsTheTailAndCountsDrops) {
  obs::Registry reg;
  reg.enable_tracing(4);
  EXPECT_TRUE(reg.tracing_enabled());
  for (std::uint64_t t = 0; t < 10; ++t) {
    reg.record(t, static_cast<std::uint32_t>(t % 3), 1.0 * static_cast<double>(t), 0.0);
  }
  EXPECT_EQ(reg.trace_dropped(), 6u);
  const auto events = reg.trace_events();
  ASSERT_EQ(events.size(), 4u);
  // Chronological order, oldest surviving record first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, 6u + i);
    EXPECT_DOUBLE_EQ(events[i].value, 6.0 + static_cast<double>(i));
  }
}

TEST(ObsTracer, DisabledRecordIsANoOp) {
  obs::Registry reg;
  EXPECT_FALSE(reg.tracing_enabled());
  reg.record(1, 2, 3.0, 4.0);
  EXPECT_TRUE(reg.trace_events().empty());
  EXPECT_EQ(reg.trace_dropped(), 0u);
}

TEST(ObsTracer, CsvIsChronologicalWithSequenceNumbers) {
  obs::Registry reg;
  reg.enable_tracing(8);
  reg.record(0, 5, 1.5, 0.0);
  reg.record(1, 0, 2.0, 0.25);
  std::ostringstream out;
  reg.write_trace_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("seq,time,code,value,aux"), std::string::npos);
  EXPECT_NE(csv.find("0,0,5,1.5,0"), std::string::npos);
  EXPECT_NE(csv.find("1,1,0,2,0.25"), std::string::npos);
}

}  // namespace
