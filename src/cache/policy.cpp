#include "cache/policy.hpp"

#include <stdexcept>

#include "cache/admission.hpp"
#include "cache/arc.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/w_tinylfu.hpp"

namespace webcache::cache {

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDefault: return "default";
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kLfu: return "lfu";
    case PolicyKind::kGreedyDual: return "gd";
    case PolicyKind::kTinyLfuLru: return "tinylfu-lru";
    case PolicyKind::kWTinyLfu: return "w-tinylfu";
    case PolicyKind::kArc: return "arc";
  }
  return "default";
}

std::optional<PolicyKind> policy_from_string(std::string_view name) {
  if (name == "default") return PolicyKind::kDefault;
  if (name == "lru") return PolicyKind::kLru;
  if (name == "lfu") return PolicyKind::kLfu;
  if (name == "gd" || name == "greedy-dual") return PolicyKind::kGreedyDual;
  if (name == "tinylfu-lru") return PolicyKind::kTinyLfuLru;
  if (name == "w-tinylfu" || name == "wtinylfu") return PolicyKind::kWTinyLfu;
  if (name == "arc") return PolicyKind::kArc;
  return std::nullopt;
}

std::string policy_names() {
  return "default, lru, lfu, gd, tinylfu-lru, w-tinylfu, arc";
}

std::unique_ptr<Cache> make_cache(PolicyKind kind, PolicyKind paper_policy, std::size_t capacity) {
  if (kind == PolicyKind::kDefault) kind = paper_policy;
  switch (kind) {
    case PolicyKind::kDefault:
      throw std::invalid_argument("make_cache: no paper policy for kDefault");
    case PolicyKind::kLru: return std::make_unique<LruCache>(capacity);
    case PolicyKind::kLfu: return std::make_unique<LfuCache>(capacity, LfuMode::kDynamicAging);
    case PolicyKind::kGreedyDual: return std::make_unique<GreedyDualCache>(capacity);
    case PolicyKind::kTinyLfuLru:
      return std::make_unique<AdmittedCache>(std::make_unique<LruCache>(capacity));
    case PolicyKind::kWTinyLfu: return std::make_unique<WTinyLfuCache>(capacity);
    case PolicyKind::kArc: return std::make_unique<ArcCache>(capacity);
  }
  return nullptr;
}

}  // namespace webcache::cache
