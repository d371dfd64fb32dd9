// Named replacement/admission policy selection — the seam that lets any
// scheme swap its proxy-tier or client-tier cache for one of the modern
// policies (TinyLFU admission, W-TinyLFU, ARC) without new wiring per
// combination. SimConfig carries two PolicyKind fields; the CLI parses them
// from --proxy-policy/--client-policy.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cache/cache.hpp"

namespace webcache::cache {

/// Selectable cache policy. kDefault keeps the owning scheme's paper policy
/// (LFU at NC/SC/*-EC proxies, greedy-dual at Hier-GD proxies and all
/// per-client caches).
enum class PolicyKind {
  kDefault,
  kLru,
  kLfu,
  kGreedyDual,
  kTinyLfuLru,  ///< AdmittedCache(TinyLFU) fronting a plain LRU
  kWTinyLfu,
  kArc,
};

/// Canonical spelling ("default", "lru", "lfu", "gd", "tinylfu-lru",
/// "w-tinylfu", "arc").
[[nodiscard]] std::string_view to_string(PolicyKind kind);

/// Parses a policy name (the canonical spellings plus the aliases
/// "greedy-dual" and "wtinylfu"); std::nullopt for anything else.
[[nodiscard]] std::optional<PolicyKind> policy_from_string(std::string_view name);

/// Comma-separated list of every parseable policy name, for error messages
/// and --help text.
[[nodiscard]] std::string policy_names();

/// Constructs the selected policy at `capacity`. kDefault builds
/// `paper_policy`, the owning scheme's own policy (kLfu or kGreedyDual);
/// std::invalid_argument when that is kDefault too. kLfu builds LFU-DA, the
/// paper's proxy policy.
[[nodiscard]] std::unique_ptr<Cache> make_cache(PolicyKind kind, PolicyKind paper_policy,
                                                std::size_t capacity);

}  // namespace webcache::cache
