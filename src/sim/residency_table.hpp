// Cluster residency: object -> set of proxy clusters holding it.
//
// Both engines answer the cooperative schemes' "which other cluster holds
// this object?" question from this table. The sequential engine keeps it
// live (every insert/evict writes it at once); the sharded engine holds its
// epoch-start digests here and applies each epoch's logged changes at the
// barrier. The layout is a flat bit matrix of ceil(P/64) words per object, so
// a lookup is one indexed row read plus a ring-ordered bit scan at any proxy
// count, and a 4-cluster digest costs 8 bytes per object.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace webcache::sim {

/// Which residency relation a lookup or change targets. Per scheme:
///   SC / FC / Hier-GD  kPrimary = proxy cache membership
///   SC-EC / FC-EC      kPrimary = tier 1 (proxy), kSecondary = tier 2 only
///                      (client caches; for FC-EC the unified cache minus
///                      the tier tracker)
///   Hier-GD            kDir = keys the cluster's lookup directory
///                      registered (sharded runs only; sequential runs probe
///                      the remote directories themselves)
enum class Residency : std::uint8_t { kPrimary, kSecondary, kDir };

class ResidencyTable {
 public:
  ResidencyTable() = default;
  ResidencyTable(ObjectNum universe, unsigned clusters)
      : words_((clusters + 63) / 64), bits_(static_cast<std::size_t>(universe) * words_, 0) {}

  /// True for a relation the scheme does not use (never allocated).
  [[nodiscard]] bool empty() const { return words_ == 0; }
  /// Objects with a row (0 when empty).
  [[nodiscard]] ObjectNum universe() const {
    return words_ == 0 ? 0 : static_cast<ObjectNum>(bits_.size() / words_);
  }

  /// Marks `cluster` as holding (or no longer holding) `object`; grows the
  /// table for an object beyond the declared universe.
  void assign(ObjectNum object, unsigned cluster, bool present) {
    const std::size_t at = static_cast<std::size_t>(object) * words_ + (cluster >> 6);
    if (at >= bits_.size()) {
      if (!present) return;
      bits_.resize((static_cast<std::size_t>(object) + 1) * words_, 0);
    }
    const std::uint64_t bit = std::uint64_t{1} << (cluster & 63);
    bits_[at] = present ? bits_[at] | bit : bits_[at] & ~bit;
  }

  /// The object's cluster bits (empty beyond the universe).
  [[nodiscard]] std::span<const std::uint64_t> row(ObjectNum object) const {
    const std::size_t at = static_cast<std::size_t>(object) * words_;
    if (at >= bits_.size()) return {};
    return {bits_.data() + at, words_};
  }

  /// First cluster holding `object` in ring order from `local` — local+1,
  /// local+2, ... wrapping past the top cluster to 0 — never `local` itself;
  /// -1 when no other cluster holds it. This is the proxy the cooperative
  /// schemes' historical per-proxy probe loops selected.
  [[nodiscard]] int first_in_ring(ObjectNum object, unsigned local) const {
    const auto bits = row(object);
    if (bits.empty()) return -1;
    const unsigned word = local >> 6;
    const unsigned bit = local & 63;
    const auto found = [](std::size_t w, std::uint64_t value) {
      return static_cast<int>(w * 64 + static_cast<unsigned>(std::countr_zero(value)));
    };
    // Bits above `local` in its own word, the higher words, the lower words,
    // then the bits below `local` in its own word.
    const std::uint64_t above = bit == 63 ? 0 : bits[word] & (~std::uint64_t{0} << (bit + 1));
    if (above != 0) return found(word, above);
    for (std::size_t w = word + 1; w < bits.size(); ++w) {
      if (bits[w] != 0) return found(w, bits[w]);
    }
    for (std::size_t w = 0; w < word; ++w) {
      if (bits[w] != 0) return found(w, bits[w]);
    }
    const std::uint64_t below = bit == 0 ? 0 : bits[word] & (~std::uint64_t{0} >> (64 - bit));
    if (below != 0) return found(word, below);
    return -1;
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace webcache::sim
