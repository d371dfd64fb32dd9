// Position-indexed 4-ary min-heap for cache eviction orderings.
//
// LfuCache, GreedyDualCache and CostBenefitCache used to keep their victim
// order in a std::set<tuple> — a red-black tree that pays a node allocation
// per insert and pointer-chasing erase+insert on *every hit*. An earlier
// replacement used a lazy-deletion binary heap (push a fresh node per re-key,
// skip stale nodes when they surface); profiling the Hier-GD destage loop
// showed the stale-purge pops and periodic compactions dominating, so the
// heap is now fully indexed: a side table maps each object to its node's
// position, re-keys sift the node in place, and erase swaps the last node
// into the hole. No stale nodes ever exist, so top() is O(1) and memory is
// exactly one 16-byte node per live entry. The 4-ary layout halves the tree
// depth of a binary heap; sift costs stay O(log n) over one contiguous
// vector with no allocation beyond its growth.
//
// Victim selection is bit-identical to the ordered-set implementation: every
// priority embeds the policy's monotone re-key sequence number, so priorities
// of distinct objects never compare equal and the minimum node is exactly
// the element std::set::begin() would have produced — including all
// tie-breaks (e.g. the LFU-DA aging-floor recency tie). The heap's internal
// layout never influences which object is the minimum.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/dense_map.hpp"
#include "common/types.hpp"

namespace webcache::cache {

/// `Priority` must be default-constructible, cheaply copyable and totally
/// ordered by operator< across live entries (pairs/tuples of arithmetic
/// types; no NaNs). Smaller priority = evicted first.
template <typename Priority>
class EvictionHeap {
 public:
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Declares that keys are dense in [0, universe) and the heap may hold a
  /// universe-scale population (a proxy cache, not a 5-entry client cache):
  /// the position index switches from the hashed FlatMap to a direct-indexed
  /// array, turning the per-level index update of every sift into a plain
  /// store. Victim order is unaffected — the index is pure bookkeeping.
  void reserve_universe(std::size_t universe) {
    dense_pos_.reserve(universe);
    if (!dense_) {
      dense_ = true;
      hashed_pos_.for_each(
          [this](std::uint32_t key, std::uint32_t at) { dense_pos_[key] = at; });
      hashed_pos_.clear();
    }
  }

  [[nodiscard]] bool contains(ObjectNum object) const {
    return pos_find(object) != nullptr;
  }

  /// Priority of `object`, or nullptr when absent. Valid until the next
  /// mutation. Lets a policy whose per-object state is exactly its priority
  /// (greedy-dual: credit + seq) use the heap as its only index.
  [[nodiscard]] const Priority* find(ObjectNum object) const {
    const std::uint32_t* at = pos_find(object);
    return at == nullptr ? nullptr : &nodes_[*at].priority;
  }

  /// Visits every member's object id in heap-layout order (deterministic for
  /// a given operation history, like FlatMap's probe order).
  template <typename Fn>
  void for_each_object(Fn&& fn) const {
    for (const Node& n : nodes_) fn(n.object);
  }

  /// Inserts `object` or re-keys it to `priority`.
  void set(ObjectNum object, const Priority& priority) {
    if (std::uint32_t* at = pos_find(object)) {
      nodes_[*at].priority = priority;
      sift(*at);
      return;
    }
    const auto at = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({priority, object});
    pos_write(object, at);
    sift_up(at);
  }

  /// Removes `object`. Returns true if it was present.
  bool erase(ObjectNum object) {
    const std::uint32_t* at = pos_find(object);
    if (at == nullptr) return false;
    remove_at(*at);
    return true;
  }

  /// Minimum-priority entry. Precondition: !empty().
  [[nodiscard]] std::pair<Priority, ObjectNum> top() const {
    return {nodes_.front().priority, nodes_.front().object};
  }

  /// Removes the minimum-priority entry. Precondition: !empty().
  void pop() { remove_at(0); }

  void clear() {
    if (dense_) {
      dense_pos_.clear();
    } else {
      hashed_pos_.clear();
    }
    nodes_.clear();
  }

 private:
  struct Node {
    Priority priority;
    ObjectNum object;
  };

  static constexpr std::uint32_t kArity = 4;

  [[nodiscard]] std::uint32_t* pos_find(ObjectNum object) {
    return dense_ ? dense_pos_.find(object) : hashed_pos_.find(object);
  }
  [[nodiscard]] const std::uint32_t* pos_find(ObjectNum object) const {
    return dense_ ? dense_pos_.find(object) : hashed_pos_.find(object);
  }
  void pos_write(ObjectNum object, std::uint32_t at) {
    if (dense_) {
      dense_pos_[object] = at;
    } else {
      hashed_pos_[object] = at;
    }
  }
  void pos_erase(ObjectNum object) {
    if (dense_) {
      dense_pos_.erase(object);
    } else {
      hashed_pos_.erase(object);
    }
  }

  void remove_at(std::uint32_t at) {
    pos_erase(nodes_[at].object);
    const auto last = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (at != last) {
      nodes_[at] = nodes_[last];
      nodes_.pop_back();
      pos_write(nodes_[at].object, at);
      sift(at);  // the relocated node may belong above or below the hole
    } else {
      nodes_.pop_back();
    }
  }

  /// Restores the heap property at `at` after an arbitrary priority change.
  void sift(std::uint32_t at) {
    if (at > 0 && nodes_[at].priority < nodes_[(at - 1) / kArity].priority) {
      sift_up(at);
    } else {
      sift_down(at);
    }
  }

  void sift_up(std::uint32_t at) {
    const Node moving = nodes_[at];
    while (at > 0) {
      const std::uint32_t parent = (at - 1) / kArity;
      if (!(moving.priority < nodes_[parent].priority)) break;
      nodes_[at] = nodes_[parent];
      pos_write(nodes_[at].object, at);
      at = parent;
    }
    nodes_[at] = moving;
    pos_write(moving.object, at);
  }

  void sift_down(std::uint32_t at) {
    const Node moving = nodes_[at];
    const auto count = static_cast<std::uint32_t>(nodes_.size());
    for (;;) {
      const std::uint64_t first = std::uint64_t{at} * kArity + 1;
      if (first >= count) break;
      const std::uint32_t end =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(first + kArity, count));
      std::uint32_t best = static_cast<std::uint32_t>(first);
      for (std::uint32_t c = best + 1; c < end; ++c) {
        if (nodes_[c].priority < nodes_[best].priority) best = c;
      }
      if (!(nodes_[best].priority < moving.priority)) break;
      nodes_[at] = nodes_[best];
      pos_write(nodes_[at].object, at);
      at = best;
    }
    nodes_[at] = moving;
    pos_write(moving.object, at);
  }

  /// object -> index into nodes_. Hashed by default (client caches hold a
  /// handful of objects out of a huge universe); reserve_universe() flips a
  /// proxy-scale heap to the direct-indexed form.
  bool dense_ = false;
  FlatMap<std::uint32_t> hashed_pos_;
  DenseMap<std::uint32_t> dense_pos_;
  std::vector<Node> nodes_;
};

}  // namespace webcache::cache
