// Ablation: replacement policy at Hier-GD's proxy tier.
//
// The paper builds on Korupolu & Dahlin's observation that greedy-dual
// implicitly coordinates cooperating caches (cheap-to-refetch objects go
// first). Swapping the proxy tier to LRU or LFU while keeping everything
// else fixed isolates that effect. Every variant is measured against NC at
// its paper policy (LFU), not NC under the variant's policy.
#include "bench_common.hpp"

#include <iomanip>
#include <iterator>
#include <vector>

int main() {
  using namespace webcache;
  bench::SectionTimer timer("abl_policy");

  auto wl = bench::paper_workload();
  wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 50'000);
  const auto source = bench::bench_source(wl);
  const auto& trace = *source;
  const auto infinite = core::cluster_infinite_cache_size(trace, 2);

  struct Variant {
    std::string label;
    cache::PolicyKind policy;
  };
  const Variant variants[] = {
      {"greedy-dual", cache::PolicyKind::kGreedyDual},
      {"lru", cache::PolicyKind::kLru},
      {"lfu", cache::PolicyKind::kLfu},
  };
  const auto config_at = [&](sim::Scheme scheme, double pct) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.proxy_capacity = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(infinite) * pct / 100.0));
    cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);
    return cfg;
  };
  const double pcts[] = {10.0, 30.0, 50.0};
  std::vector<sim::Metrics> baselines;
  for (const double pct : pcts) {
    baselines.push_back(sim::run_simulation(config_at(sim::Scheme::kNC, pct), trace));
  }

  std::cout << "# Proxy-tier policy ablation for Hier-GD (gain % vs NC)\n";
  std::cout << std::left << std::setw(14) << "# policy";
  for (const double pct : pcts) std::cout << "cache" << pct << "%   ";
  std::cout << "\n" << std::fixed << std::setprecision(2);

  for (const auto& v : variants) {
    std::cout << std::setw(14) << v.label;
    for (std::size_t i = 0; i < std::size(pcts); ++i) {
      auto cfg = config_at(sim::Scheme::kHierGD, pcts[i]);
      cfg.proxy_policy = v.policy;
      const auto metrics = sim::run_simulation(cfg, trace);
      std::cout << std::setw(12) << 100.0 * sim::latency_gain(baselines[i], metrics);
    }
    std::cout << "\n";
  }
  return 0;
}
