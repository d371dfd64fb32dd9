// Fenwick (binary indexed) tree over non-negative weights with prefix-sum
// sampling. ProWGen draws every request from a dynamically-weighted object
// population (weights = remaining reference counts, split between the LRU
// stack and the pool), which needs O(log n) weight updates and O(log n)
// sample-by-cumulative-weight.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace webcache {

class FenwickTree {
 public:
  // weights_ is built first: its length check bounds n, so n + 1 cannot wrap.
  explicit FenwickTree(std::size_t n) : weights_(n, 0), tree_(n + 1, 0) {}

  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  [[nodiscard]] double total() const { return total_; }
  [[nodiscard]] double weight(std::size_t i) const { return weights_[i]; }

  /// Sets the weight of element i.
  void set(std::size_t i, double w) {
    assert(w >= 0.0);
    add(i, w - weights_[i]);
  }

  /// Adds delta (may be negative) to element i's weight.
  void add(std::size_t i, double delta) {
    if (delta == 0.0) return;
    weights_[i] += delta;
    // Clamp tiny negative residue from floating-point cancellation.
    if (weights_[i] < 0.0) {
      delta -= weights_[i];
      weights_[i] = 0.0;
    }
    total_ += delta;
    for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  /// Sum of weights of elements [0, i).
  [[nodiscard]] double prefix_sum(std::size_t i) const {
    double s = 0.0;
    for (std::size_t j = i; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

  /// Smallest index i with prefix_sum(i+1) > target, i.e. the element a
  /// uniform draw `target` in [0, total()) lands on. Elements with zero
  /// weight are never returned (given target < total()).
  [[nodiscard]] std::size_t find(double target) const {
    std::size_t idx = 0;
    std::size_t bit = highest_bit(tree_.size() - 1);
    while (bit != 0) {
      const std::size_t next = idx + bit;
      if (next < tree_.size() && tree_[next] <= target) {
        target -= tree_[next];
        idx = next;
      }
      bit >>= 1;
    }
    // idx is now the count of elements wholly before the target. Guard
    // against floating-point drift pushing the draw past the last element or
    // onto a zero-weight slot.
    if (idx >= weights_.size()) idx = weights_.size() - 1;
    while (idx > 0 && weights_[idx] == 0.0) --idx;
    while (idx + 1 < weights_.size() && weights_[idx] == 0.0) ++idx;
    return idx;
  }

 private:
  static std::size_t highest_bit(std::size_t n) {
    std::size_t b = 1;
    while ((b << 1) <= n) b <<= 1;
    return n == 0 ? 0 : b;
  }

  std::vector<double> weights_;
  std::vector<double> tree_;
  double total_ = 0.0;
};

}  // namespace webcache
