// Modern-policy frontier: TinyLFU admission and the W-TinyLFU/ARC eviction
// policies. Covers (a) the admission sketch's halving step, which is keyed
// to the filter's own operation count and therefore deterministic for any
// thread count, shard count, or replay chunking; (b) ARC's p-adaptation
// swinging toward recency under ghost hits in B1 and back toward frequency
// under loop workloads that hit B2; (c) W-TinyLFU's scan resistance versus
// LRU; and (d) byte-identical metrics exports for the new policies across
// 1 vs 8 worker threads and 1 vs 8 shards, including churn + loss runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "cache/admission.hpp"
#include "cache/arc.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/policy.hpp"
#include "cache/w_tinylfu.hpp"
#include "core/experiment.hpp"
#include "fault/churn_schedule.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"

namespace {

using namespace webcache;

// --- AdmissionFilter ------------------------------------------------------

TEST(AdmissionFilter, HalvingIsKeyedToOperationCount) {
  cache::AdmissionFilter filter(100);
  ASSERT_EQ(filter.sample_period(), 1'000u);

  std::uint64_t signalled = 0;
  for (std::uint64_t op = 1; op <= 3 * filter.sample_period(); ++op) {
    const bool halved = filter.record_access(static_cast<ObjectNum>(op % 50));
    signalled += halved ? 1U : 0U;
    // The aging step fires on exactly every sample_period()-th reference.
    EXPECT_EQ(halved, op % filter.sample_period() == 0) << "op " << op;
  }
  EXPECT_EQ(filter.halvings(), 3u);
  EXPECT_EQ(signalled, 3u);
}

TEST(AdmissionFilter, IdenticalStreamsYieldIdenticalEstimates) {
  cache::AdmissionFilter a(64), b(64);
  for (std::uint64_t op = 0; op < 5'000; ++op) {
    const auto object = static_cast<ObjectNum>((op * op + 7) % 97);
    a.record_access(object);
    b.record_access(object);
  }
  EXPECT_EQ(a.halvings(), b.halvings());
  for (ObjectNum object = 0; object < 97; ++object) {
    EXPECT_EQ(a.estimate(object), b.estimate(object)) << "object " << object;
  }
}

TEST(AdmissionFilter, AdmitsFrequentOverRareAndDecaysOnHalving) {
  cache::AdmissionFilter filter(64);
  for (int i = 0; i < 12; ++i) filter.record_access(1);
  filter.record_access(2);
  EXPECT_GT(filter.estimate(1), filter.estimate(2));
  EXPECT_TRUE(filter.admit(1, 2));
  EXPECT_FALSE(filter.admit(2, 1));
  // Ties keep the incumbent: a never-seen candidate loses to itself.
  EXPECT_FALSE(filter.admit(3, 4));

  const unsigned before = filter.estimate(1);
  // Drive the op counter to the halving boundary with distinct one-timers.
  ObjectNum filler = 1'000;
  while (!filter.record_access(filler++)) {
  }
  EXPECT_EQ(filter.halvings(), 1u);
  EXPECT_LT(filter.estimate(1), before);
}

// --- ARC p-adaptation -----------------------------------------------------

/// Drives `arc` with one request: a hit when cached, an insert otherwise.
void request(cache::ArcCache& arc, ObjectNum object) {
  if (arc.contains(object)) {
    arc.access(object, 1.0);
  } else {
    (void)arc.insert(object, 1.0);
  }
}

TEST(ArcCache, B1GhostHitsGrowTheRecencyTarget) {
  cache::ArcCache arc(32);
  // Seed a frequency core so REPLACE has a T2 to protect.
  for (ObjectNum o = 0; o < 8; ++o) request(arc, o);
  for (ObjectNum o = 0; o < 8; ++o) request(arc, o);  // -> T2
  // Scan: fills T1, then demotes T1 LRUs into the B1 ghost list.
  for (ObjectNum o = 100; o < 140; ++o) request(arc, o);
  ASSERT_EQ(arc.target_p(), 0u);
  ASSERT_GT(arc.ghost_size(), 0u);

  // Re-request the MOST RECENTLY evicted scan objects (older ghosts have
  // already been forgotten by the B1 depth bound): each B1 ghost hit votes
  // that recency is undervalued, so p must grow.
  for (ObjectNum o = 108; o < 116; ++o) request(arc, o);
  EXPECT_GT(arc.ghost_hits_b1(), 0u);
  EXPECT_GT(arc.target_p(), 0u);
}

TEST(ArcCache, LoopWorkloadSwingsTheTargetBackTowardFrequency) {
  cache::ArcCache arc(32);
  // Seed a frequency core into T2 (a pure loop over an all-T1 cache evicts
  // without ghosts — ARC by design does not adapt there).
  for (ObjectNum o = 0; o < 8; ++o) request(arc, o);
  for (ObjectNum o = 0; o < 8; ++o) request(arc, o);
  // A cyclic loop wider than T1's share but within ghost reach (any wider
  // and the B1 window can never catch the wrap point — ARC then correctly
  // degenerates to LRU-like cycling with no adaptation): its B1 ghost hits
  // pump p up, and the growing recency share squeezes the seed core out of
  // T2 into the B2 ghost list.
  std::size_t max_p = 0;
  for (int lap = 0; lap < 12; ++lap) {
    for (ObjectNum o = 100; o < 128; ++o) {
      request(arc, o);
      max_p = std::max(max_p, arc.target_p());
    }
  }
  EXPECT_GT(arc.ghost_hits_b1(), 0u);
  ASSERT_GT(max_p, 0u);

  // Re-requesting the squeezed-out frequency core hits B2: each ghost hit
  // votes that frequency is undervalued, so p must come back down.
  for (ObjectNum o = 0; o < 8; ++o) request(arc, o);
  EXPECT_GT(arc.ghost_hits_b2(), 0u);
  EXPECT_LT(arc.target_p(), max_p);
}

TEST(ArcCache, GhostListsStayBounded) {
  cache::ArcCache arc(16);
  for (ObjectNum o = 0; o < 1'000; ++o) request(arc, o);
  EXPECT_LE(arc.size(), arc.capacity());
  // ARC's directory (cached + ghosts) is at most 2c entries.
  EXPECT_LE(arc.size() + arc.ghost_size(), 2 * arc.capacity());
}

// --- W-TinyLFU scan resistance --------------------------------------------

TEST(PolicyFrontier, WTinyLfuBeatsLruUnderAScanFloodedHotSet) {
  // 50 hot objects in a 60-slot cache, interleaved 1:1 with one-time scan
  // objects: LRU's reuse window (50 hot + 50 scans) overflows the cache and
  // thrashes, while the admission duel rejects the scans.
  const std::size_t kCapacity = 60;
  const ObjectNum kHot = 50;
  cache::WTinyLfuCache wtlfu(kCapacity);
  cache::LruCache lru(kCapacity);

  const auto drive = [](cache::Cache& cache, ObjectNum object) {
    if (cache.contains(object)) {
      cache.access(object, 1.0);
      return 1;
    }
    (void)cache.insert(object, 1.0);
    return 0;
  };

  int wtlfu_hits = 0, lru_hits = 0;
  for (ObjectNum round = 0; round < 4'000; ++round) {
    const ObjectNum hot = round % kHot;
    const ObjectNum scan = 10'000 + round;  // never repeats
    wtlfu_hits += drive(wtlfu, hot) + drive(wtlfu, scan);
    lru_hits += drive(lru, hot) + drive(lru, scan);
  }
  EXPECT_GT(wtlfu_hits, lru_hits);
  // The hot set must actually be resident, not just marginally ahead.
  EXPECT_GT(wtlfu_hits, 3'000);
}

// --- export determinism across threads and shards -------------------------

workload::Trace policy_trace() {
  workload::ProWGenConfig wl;
  wl.total_requests = 30'000;
  wl.distinct_objects = 3'000;
  wl.seed = 2003;
  return workload::ProWGen(wl).generate();
}

sim::SimConfig policy_config(sim::Scheme scheme, cache::PolicyKind proxy,
                             cache::PolicyKind client) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.num_proxies = 8;
  cfg.proxy_capacity = 150;
  cfg.clients_per_cluster = 20;
  cfg.client_cache_capacity = 4;
  cfg.shard_epoch = 1'024;
  cfg.proxy_policy = proxy;
  cfg.client_policy = client;
  return cfg;
}

std::string export_of(sim::SimConfig cfg, const workload::Trace& trace) {
  cfg.registry = std::make_shared<obs::Registry>();
  (void)sim::run_simulation(cfg, trace);
  std::ostringstream out;
  cfg.registry->write_json(out, "admission_policy");
  return out.str();
}

TEST(PolicyDeterminism, ShardedExportsAreByteIdenticalForNewPolicies) {
  const auto trace = policy_trace();
  const struct {
    sim::Scheme scheme;
    cache::PolicyKind proxy;
    cache::PolicyKind client;
  } cases[] = {
      {sim::Scheme::kNC, cache::PolicyKind::kWTinyLfu, cache::PolicyKind::kDefault},
      {sim::Scheme::kSC, cache::PolicyKind::kArc, cache::PolicyKind::kDefault},
      {sim::Scheme::kNC_EC, cache::PolicyKind::kTinyLfuLru, cache::PolicyKind::kArc},
      {sim::Scheme::kHierGD, cache::PolicyKind::kWTinyLfu, cache::PolicyKind::kArc},
      {sim::Scheme::kSquirrel, cache::PolicyKind::kDefault, cache::PolicyKind::kWTinyLfu},
  };
  for (const auto& c : cases) {
    auto cfg = policy_config(c.scheme, c.proxy, c.client);
    cfg.sim_shards = 1;
    const std::string one = export_of(cfg, trace);
    // The exports must actually carry the policy.* namespace.
    if (c.proxy != cache::PolicyKind::kDefault) {
      EXPECT_NE(one.find("policy."), std::string::npos) << sim::to_string(c.scheme);
    }
    for (const unsigned shards : {2U, 8U}) {
      cfg.sim_shards = shards;
      EXPECT_EQ(one, export_of(cfg, trace))
          << sim::to_string(c.scheme) << " shards=" << shards;
    }
  }
}

TEST(PolicyDeterminism, ChurnAndLossExportsAreShardCountIndependent) {
  const auto trace = policy_trace();
  for (const auto scheme : {sim::Scheme::kHierGD, sim::Scheme::kSquirrel}) {
    auto cfg = policy_config(scheme, cache::PolicyKind::kWTinyLfu,
                             cache::PolicyKind::kArc);
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

TEST(PolicyDeterminism, SweepExportsAreThreadCountIndependent) {
  const auto trace = policy_trace();
  const auto sweep_export = [&trace](unsigned threads) {
    core::SweepConfig sweep;
    sweep.schemes = {sim::Scheme::kNC, sim::Scheme::kHierGD};
    sweep.cache_percents = {20.0, 40.0};
    sweep.base.proxy_policy = cache::PolicyKind::kWTinyLfu;
    sweep.base.client_policy = cache::PolicyKind::kArc;
    sweep.threads = threads;
    sweep.collect_observability = true;
    const auto result = core::run_sweep(trace, sweep);
    std::ostringstream out;
    core::write_metrics_json(out, result, "admission_policy_sweep");
    return out.str();
  };
  const std::string one = sweep_export(1);
  EXPECT_NE(one.find("policy.admission_considered"), std::string::npos);
  EXPECT_EQ(one, sweep_export(8));
}

// --- policy selection plumbing --------------------------------------------

TEST(PolicySelection, NamesRoundTripAndMakeCacheHonoursKinds) {
  using cache::PolicyKind;
  for (const auto kind :
       {PolicyKind::kLru, PolicyKind::kLfu, PolicyKind::kGreedyDual,
        PolicyKind::kTinyLfuLru, PolicyKind::kWTinyLfu, PolicyKind::kArc}) {
    const auto name = std::string(cache::to_string(kind));
    const auto parsed = cache::policy_from_string(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
    // A named kind wins over the paper policy.
    const auto cache = cache::make_cache(kind, PolicyKind::kGreedyDual, 16);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_EQ(cache->capacity(), 16u);
    const auto other = cache::make_cache(kind, PolicyKind::kLfu, 16);
    const cache::Cache& built = *cache;
    const cache::Cache& built_other = *other;
    EXPECT_EQ(typeid(built), typeid(built_other)) << name;
  }
  // kDefault builds the caller's paper policy, and needs one.
  const auto lfu = cache::make_cache(PolicyKind::kDefault, PolicyKind::kLfu, 16);
  EXPECT_NE(dynamic_cast<cache::LfuCache*>(lfu.get()), nullptr);
  const auto gd = cache::make_cache(PolicyKind::kDefault, PolicyKind::kGreedyDual, 16);
  EXPECT_NE(dynamic_cast<cache::GreedyDualCache*>(gd.get()), nullptr);
  EXPECT_EQ(gd->capacity(), 16u);
  EXPECT_THROW((void)cache::make_cache(PolicyKind::kDefault, PolicyKind::kDefault, 16),
               std::invalid_argument);
  EXPECT_FALSE(cache::policy_from_string("clock-pro").has_value());
}

// Naming a scheme's paper policy explicitly must change nothing: LFU-DA at
// NC/SC and the SC-EC first tier, greedy-dual at Hier-GD. The proxy-policy
// ablation relies on this equivalence.
TEST(PolicySelection, PaperPolicyByNameExportsLikeDefault) {
  const auto trace = policy_trace();
  const struct {
    sim::Scheme scheme;
    cache::PolicyKind paper;
  } cases[] = {
      {sim::Scheme::kNC, cache::PolicyKind::kLfu},
      {sim::Scheme::kSC, cache::PolicyKind::kLfu},
      {sim::Scheme::kSC_EC, cache::PolicyKind::kLfu},
      {sim::Scheme::kHierGD, cache::PolicyKind::kGreedyDual},
  };
  for (const auto& c : cases) {
    auto cfg = policy_config(c.scheme, cache::PolicyKind::kDefault, cache::PolicyKind::kDefault);
    const std::string by_default = export_of(cfg, trace);
    cfg.proxy_policy = c.paper;
    EXPECT_EQ(by_default, export_of(cfg, trace)) << sim::to_string(c.scheme);
  }
}

TEST(PolicySelection, ClairvoyantSchemesRejectProxyPolicyOverrides) {
  const auto trace = policy_trace();
  for (const auto scheme : {sim::Scheme::kFC, sim::Scheme::kFC_EC}) {
    auto cfg = policy_config(scheme, cache::PolicyKind::kArc,
                             cache::PolicyKind::kDefault);
    EXPECT_THROW((void)sim::run_simulation(cfg, trace), std::invalid_argument)
        << sim::to_string(scheme);
  }
}

}  // namespace
