#include "pastry/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/sha1.hpp"

namespace webcache::pastry {
namespace {

NodeId id_for(int i) { return node_id_for("node/" + std::to_string(i)); }

Uint128 key_for(int i) { return Sha1::hash128("key/" + std::to_string(i)); }

Overlay make_overlay(int n, OverlayConfig cfg = {}) {
  Overlay o(cfg);
  for (int i = 0; i < n; ++i) o.add_node(id_for(i));
  return o;
}

/// Brute-force ground truth for the numerically closest node.
NodeId brute_force_root(const std::vector<NodeId>& nodes, const Uint128& key) {
  NodeId best = nodes.front();
  for (const auto& n : nodes) {
    if (closer_to(key, n, best)) best = n;
  }
  return best;
}

TEST(RoutingTable, SlotCoordinatesMatchPrefixAndDigit) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  const NodeId peer = Uint128::from_hex("a5000000000000000000000000000000");
  const auto slot = rt.slot_of(peer);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->first, 1u);   // shares 1 digit ('a')
  EXPECT_EQ(slot->second, 5u);  // next digit is 5
  EXPECT_FALSE(rt.slot_of(owner).has_value());
}

TEST(RoutingTable, InsertEraseAndNextHop) {
  const NodeId owner = Uint128::from_hex("00000000000000000000000000000000");
  RoutingTable rt(owner, 4);
  const NodeId peer = Uint128::from_hex("70000000000000000000000000000000");
  EXPECT_TRUE(rt.insert(peer));
  EXPECT_FALSE(rt.insert(peer));  // idempotent without replace
  EXPECT_EQ(rt.populated_count(), 1u);

  const Uint128 key = Uint128::from_hex("7a000000000000000000000000000000");
  const auto hop = rt.next_hop(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, peer);

  EXPECT_TRUE(rt.erase(peer));
  EXPECT_FALSE(rt.next_hop(key).has_value());
  EXPECT_EQ(rt.populated_count(), 0u);
}

TEST(RoutingTable, RejectsBadDigitWidth) {
  EXPECT_THROW(RoutingTable(NodeId{}, 0), std::invalid_argument);
  EXPECT_THROW(RoutingTable(NodeId{}, 3), std::invalid_argument);   // 128 % 3 != 0
  EXPECT_THROW(RoutingTable(NodeId{}, 16), std::invalid_argument);  // > 8
}

TEST(LeafSet, KeepsClosestPerSide) {
  const NodeId owner(0, 100);
  LeafSet ls(owner, 4);  // 2 per side
  for (const std::uint64_t v : {105U, 110U, 115U, 95U, 90U, 85U}) ls.insert(NodeId(0, v));
  // Clockwise side keeps 105, 110; counter-clockwise keeps 95, 90.
  EXPECT_TRUE(ls.contains(NodeId(0, 105)));
  EXPECT_TRUE(ls.contains(NodeId(0, 110)));
  EXPECT_FALSE(ls.contains(NodeId(0, 115)));
  EXPECT_TRUE(ls.contains(NodeId(0, 95)));
  EXPECT_TRUE(ls.contains(NodeId(0, 90)));
  EXPECT_FALSE(ls.contains(NodeId(0, 85)));
}

TEST(LeafSet, ClosestToFindsNumericallyNearest) {
  const NodeId owner(0, 100);
  LeafSet ls(owner, 4);
  ls.insert(NodeId(0, 105));
  ls.insert(NodeId(0, 90));
  EXPECT_EQ(ls.closest_to(Uint128(0, 104)), NodeId(0, 105));
  EXPECT_EQ(ls.closest_to(Uint128(0, 99)), owner);
  EXPECT_EQ(ls.closest_to(Uint128(0, 92)), NodeId(0, 90));
}

TEST(LeafSet, RejectsOddSize) {
  EXPECT_THROW(LeafSet(NodeId{}, 3), std::invalid_argument);
  EXPECT_THROW(LeafSet(NodeId{}, 0), std::invalid_argument);
}

TEST(Overlay, LeafSetsMatchGroundTruthRing) {
  const auto overlay = make_overlay(64);
  auto ids = overlay.nodes();
  ASSERT_EQ(ids.size(), 64u);
  std::sort(ids.begin(), ids.end());

  // For each node, the leaf set must contain exactly the l/2 ring
  // successors and predecessors.
  const unsigned per_side = overlay.config().leaf_set_size / 2;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& ls = overlay.leaf_set(ids[i]);
    for (unsigned k = 1; k <= per_side; ++k) {
      EXPECT_TRUE(ls.contains(ids[(i + k) % ids.size()]));
      EXPECT_TRUE(ls.contains(ids[(i + ids.size() - k) % ids.size()]));
    }
  }
}

TEST(Overlay, RootOfMatchesBruteForce) {
  const auto overlay = make_overlay(50);
  const auto ids = overlay.nodes();
  for (int k = 0; k < 500; ++k) {
    const auto key = key_for(k);
    EXPECT_EQ(overlay.root_of(key), brute_force_root(ids, key));
  }
}

TEST(Overlay, RoutingAlwaysReachesTheRoot) {
  auto overlay = make_overlay(100);
  const auto ids = overlay.nodes();
  Rng rng(4);
  for (int k = 0; k < 1000; ++k) {
    const auto key = key_for(k);
    const auto& from = ids[rng.next_below(ids.size())];
    const auto result = overlay.route(from, key);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.destination, overlay.root_of(key));
  }
}

TEST(Overlay, HopCountWithinLogBound) {
  for (const int n : {16, 64, 256}) {
    auto overlay = make_overlay(n);
    const auto ids = overlay.nodes();
    Rng rng(9);
    double total_hops = 0;
    unsigned max_hops = 0;
    constexpr int kMessages = 500;
    for (int k = 0; k < kMessages; ++k) {
      const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
      ASSERT_TRUE(result.success);
      total_hops += result.hops;
      max_hops = std::max(max_hops, result.hops);
    }
    // Expected ceil(log_16 N) with small constant slack; leaf-set delivery
    // can add one extra hop.
    const auto bound = overlay.expected_hop_bound();
    EXPECT_LE(max_hops, bound + 2) << "n=" << n;
    EXPECT_LE(total_hops / kMessages, static_cast<double>(bound) + 1.0) << "n=" << n;
  }
}

TEST(Overlay, RouteFromRootIsZeroHops) {
  auto overlay = make_overlay(32);
  const auto key = key_for(7);
  const auto root = overlay.root_of(key);
  const auto result = overlay.route(root, key);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.hops, 0u);
}

TEST(Overlay, DuplicateJoinThrows) {
  auto overlay = make_overlay(4);
  EXPECT_THROW(overlay.add_node(id_for(0)), std::invalid_argument);
}

TEST(Overlay, GracefulLeaveKeepsRoutingCorrect) {
  auto overlay = make_overlay(40);
  for (int i = 0; i < 10; ++i) overlay.remove_node(id_for(i));
  EXPECT_EQ(overlay.size(), 30u);
  const auto ids = overlay.nodes();
  Rng rng(12);
  for (int k = 0; k < 300; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

TEST(Overlay, CrashFailuresAreRoutedAround) {
  auto overlay = make_overlay(60);
  Rng rng(21);
  // Crash 15 nodes without any repair pass.
  for (int i = 0; i < 15; ++i) overlay.fail_node(id_for(i));
  const auto ids = overlay.nodes();
  ASSERT_EQ(ids.size(), 45u);
  for (int k = 0; k < 500; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success) << "key " << k;
  }
  EXPECT_GT(overlay.stats().dead_hop_detections, 0u);
}

TEST(Overlay, RepairAllPrunesDeadState) {
  auto overlay = make_overlay(60);
  for (int i = 0; i < 20; ++i) overlay.fail_node(id_for(i));
  overlay.repair_all();
  // After repair, no live node references a dead one.
  for (const auto& id : overlay.nodes()) {
    for (const auto& member : overlay.leaf_set(id).members()) {
      EXPECT_TRUE(overlay.contains(member));
    }
    for (const auto& entry : overlay.routing_table(id).populated()) {
      EXPECT_TRUE(overlay.contains(entry));
    }
  }
  // Routing after repair hits no dead references.
  overlay.reset_stats();
  const auto ids = overlay.nodes();
  Rng rng(31);
  for (int k = 0; k < 300; ++k) {
    (void)overlay.route(ids[rng.next_below(ids.size())], key_for(k));
  }
  EXPECT_EQ(overlay.stats().dead_hop_detections, 0u);
}

TEST(Overlay, SingleNodeDeliversEverythingLocally) {
  auto overlay = make_overlay(1);
  const auto root = overlay.nodes().front();
  for (int k = 0; k < 20; ++k) {
    const auto result = overlay.route(root, key_for(k));
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.hops, 0u);
    EXPECT_EQ(result.destination, root);
  }
}

TEST(Overlay, StatsAccumulateHops) {
  auto overlay = make_overlay(64);
  const auto ids = overlay.nodes();
  overlay.reset_stats();
  Rng rng(2);
  for (int k = 0; k < 100; ++k) {
    (void)overlay.route(ids[rng.next_below(ids.size())], key_for(k));
  }
  EXPECT_EQ(overlay.stats().messages_routed, 100u);
  EXPECT_GT(overlay.stats().total_hops, 0u);
}

class OverlayDigitWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(OverlayDigitWidth, RoutingCorrectForAllBases) {
  OverlayConfig cfg;
  cfg.bits_per_digit = GetParam();
  auto overlay = make_overlay(48, cfg);
  const auto ids = overlay.nodes();
  Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, OverlayDigitWidth, ::testing::Values(1u, 2u, 4u, 8u));

class OverlayLeafSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(OverlayLeafSize, RoutingCorrectForLeafSetSizes) {
  OverlayConfig cfg;
  cfg.leaf_set_size = GetParam();
  auto overlay = make_overlay(48, cfg);
  const auto ids = overlay.nodes();
  Rng rng(6);
  for (int k = 0; k < 200; ++k) {
    const auto result = overlay.route(ids[rng.next_below(ids.size())], key_for(k));
    EXPECT_TRUE(result.success);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, OverlayLeafSize, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(Overlay, ChurnStressKeepsRoutingCorrect) {
  OverlayConfig cfg;
  auto overlay = Overlay(cfg);
  Rng rng(77);
  std::set<int> alive;
  int next_id = 0;
  // Seed with 30 nodes.
  for (; next_id < 30; ++next_id) {
    overlay.add_node(id_for(next_id));
    alive.insert(next_id);
  }
  for (int round = 0; round < 60; ++round) {
    const int action = static_cast<int>(rng.next_below(3));
    if (action == 0) {
      overlay.add_node(id_for(next_id));
      alive.insert(next_id);
      ++next_id;
    } else if (action == 1 && alive.size() > 5) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.next_below(alive.size())));
      overlay.fail_node(id_for(*it));
      alive.erase(it);
    } else if (alive.size() > 5) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.next_below(alive.size())));
      overlay.remove_node(id_for(*it));
      alive.erase(it);
    }
    // A few routes each round must all deliver to the true root.
    const auto ids = overlay.nodes();
    for (int k = 0; k < 10; ++k) {
      const auto key = key_for(round * 100 + k);
      const auto result = overlay.route(ids[rng.next_below(ids.size())], key);
      ASSERT_TRUE(result.success) << "round " << round;
    }
  }
}

// --- churn repair behavior --------------------------------------------------

TEST(Overlay, SimultaneousAdjacentFailuresRepairToGroundTruthLeafSets) {
  auto overlay = make_overlay(40);
  auto ids = overlay.nodes();
  std::sort(ids.begin(), ids.end());

  // Crash a node's immediate ring neighbors on *both* sides at once — the
  // worst case for leaf-set repair, since each side must be refilled from
  // beyond the dead pair with no graceful-leave announcement to help.
  const std::size_t i = 10;
  const NodeId survivor = ids[i];
  overlay.fail_node(ids[i - 1]);
  overlay.fail_node(ids[i + 1]);

  // Routing from the orphaned node still succeeds mid-churn.
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(overlay.route(survivor, key_for(k)).success);
  }

  const auto repairs_before = overlay.stats().repairs;
  overlay.repair_all();
  EXPECT_GT(overlay.stats().repairs, repairs_before);

  // After repair, every leaf set matches the ground-truth live ring exactly:
  // the l/2 nearest live successors and predecessors, nothing dead.
  auto live = overlay.nodes();
  std::sort(live.begin(), live.end());
  const unsigned per_side = overlay.config().leaf_set_size / 2;
  for (std::size_t n = 0; n < live.size(); ++n) {
    const auto& ls = overlay.leaf_set(live[n]);
    for (const auto& member : ls.members()) {
      EXPECT_TRUE(overlay.contains(member)) << "stale leaf survived repair";
    }
    for (unsigned k = 1; k <= per_side && k < live.size(); ++k) {
      EXPECT_TRUE(ls.contains(live[(n + k) % live.size()]));
      EXPECT_TRUE(ls.contains(live[(n + live.size() - k) % live.size()]));
    }
  }
}

TEST(Overlay, JoinReplacesDeadIncumbentAndCountsExactlyOneRepair) {
  // Crafted ids pin the routing-table geometry: B and C compete for the same
  // slot (row 0, digit 2) of A's table.
  const NodeId a = Uint128::from_hex("10000000000000000000000000000000");
  const NodeId b = Uint128::from_hex("20000000000000000000000000000000");
  const NodeId c = Uint128::from_hex("21000000000000000000000000000000");
  Overlay overlay{OverlayConfig{}};
  overlay.add_node(a);
  overlay.add_node(b);
  ASSERT_EQ(overlay.routing_table(a).entry(0, 2), std::optional<NodeId>(b));

  overlay.fail_node(b);
  EXPECT_EQ(overlay.stats().repairs, 0u);  // crashes are silent; no repair yet

  // C's join must evict the dead incumbent from A's slot — leaving B in
  // place would point later routes at a guaranteed timeout — and the repair
  // counter must record exactly that one replacement.
  overlay.add_node(c);
  EXPECT_EQ(overlay.stats().repairs, 1u);
  EXPECT_EQ(overlay.routing_table(a).entry(0, 2), std::optional<NodeId>(c));
  for (const auto& entry : overlay.routing_table(a).populated()) {
    EXPECT_NE(entry, b);
  }
}

TEST(Overlay, RejoinRestoresArchivedCoordinates) {
  const NodeId id = id_for(1);
  const Coordinates where{0.125, 0.875};
  Overlay overlay{OverlayConfig{}};
  overlay.add_node(id_for(0));
  overlay.add_node(id, where);
  overlay.fail_node(id);
  EXPECT_FALSE(overlay.contains(id));

  overlay.rejoin_node(id);
  ASSERT_TRUE(overlay.contains(id));
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(id).x, where.x);
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(id).y, where.y);

  // A node the overlay never saw fail joins at its default coordinates.
  const NodeId fresh = id_for(2);
  overlay.rejoin_node(fresh);
  ASSERT_TRUE(overlay.contains(fresh));
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(fresh).x, default_coordinates(fresh).x);
  EXPECT_DOUBLE_EQ(overlay.coordinates_of(fresh).y, default_coordinates(fresh).y);
}

}  // namespace
}  // namespace webcache::pastry
