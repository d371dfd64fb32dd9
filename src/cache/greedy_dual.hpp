// Greedy-dual replacement (N. Young, "On-line file caching", SODA 1998).
//
// Hier-GD runs this policy at the proxy *and* inside every client cache.
// Each cached object carries a credit H initialized to its retrieval cost;
// eviction removes the minimum-H object and conceptually deducts that
// minimum from every remaining object's credit; a hit restores the object's
// credit to its cost. Korupolu & Dahlin observed that greedy-dual gives
// *implicit* coordination between cooperating caches — cheap-to-refetch
// objects (available from a nearby cache) are evicted before expensive ones
// — which is the property Hier-GD builds on.
//
// This is the "efficient implementation" the paper cites: instead of
// decrementing every credit on each eviction (O(n)), a global inflation
// value L accumulates the deducted minima, credits are stored as H + L at
// the time they were set, and comparisons remain consistent — O(log n) per
// operation via an indexed eviction heap.
#pragma once

#include <cstdint>
#include <utility>

#include "cache/cache.hpp"
#include "cache/eviction_heap.hpp"

namespace webcache::cache {

class GreedyDualCache final : public Cache {
 public:
  explicit GreedyDualCache(std::size_t capacity) : Cache(capacity) {}

  [[nodiscard]] std::size_t size() const override { return order_.size(); }
  [[nodiscard]] bool contains(ObjectNum object) const override {
    return order_.contains(object);
  }

  /// On a hit, the object's credit resets to `cost` (plus inflation).
  void access(ObjectNum object, double cost) override;

  /// Inserts with credit = `cost` (plus inflation), evicting the minimum-
  /// credit object when full.
  InsertResult insert(ObjectNum object, double cost) override;

  bool erase(ObjectNum object) override;
  void reserve_universe(std::size_t universe) override {
    order_.reserve_universe(universe);
  }
  [[nodiscard]] std::optional<ObjectNum> peek_victim() const override;
  [[nodiscard]] std::vector<ObjectNum> contents() const override;

  /// Current (deflated) credit of a cached object: H as the textbook
  /// algorithm defines it. Exposed for the brute-force equivalence tests.
  [[nodiscard]] double credit(ObjectNum object) const;

  /// Accumulated inflation L (sum of eviction minima).
  [[nodiscard]] double inflation() const { return inflation_; }

 private:
  // Per-object state is exactly (cost + inflation at set time, FIFO seq) —
  // the eviction key itself — so the heap doubles as the only object index;
  // there is no separate entry table to keep in sync. seq is unique per
  // entry, so (credit, seq) orders totally — identical to the historical
  // std::set<tuple<credit, seq, object>> victim order.
  using Key = std::pair<double, std::uint64_t>;

  double inflation_ = 0.0;
  std::uint64_t seq_ = 0;
  EvictionHeap<Key> order_;
};

}  // namespace webcache::cache
