// Extension bench: the two Section 5.1 workload characteristics the paper
// varies in ProWGen but shows no dedicated figure for — the one-time
// referencing fraction and the distinct-object universe size. Both shift
// how much of the stream is cacheable at all, which bounds every scheme.
#include "bench_common.hpp"

#include <iomanip>

#include "workload/trace_stats.hpp"

int main() {
  using namespace webcache;
  bench::SectionTimer timer("ext_workload_sensitivity");

  const sim::Scheme schemes[] = {sim::Scheme::kSC, sim::Scheme::kFC_EC,
                                 sim::Scheme::kHierGD};

  std::cout << "# One-time referencing sweep (gain % at 30% proxy cache)\n";
  std::cout << std::left << std::setw(14) << "# one-timers";
  for (const auto s : schemes) std::cout << std::setw(10) << sim::to_string(s);
  std::cout << "max-possible-hit%\n" << std::fixed << std::setprecision(2);
  for (const double fraction : {0.3, 0.5, 0.7}) {
    auto wl = bench::paper_workload();
    wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 60'000);
    wl.one_timer_fraction = fraction;
    const auto source = bench::bench_source(wl);
    const auto& trace = *source;
    const auto infinite = core::cluster_infinite_cache_size(trace, 2);

    std::cout << std::setw(14) << fraction * 100.0;
    for (const auto s : schemes) {
      sim::SimConfig cfg;
      cfg.scheme = s;
      cfg.proxy_capacity = std::max<std::size_t>(1, infinite * 30 / 100);
      cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);
      std::cout << std::setw(10) << core::run_single(trace, cfg).gain_percent;
    }
    // Upper bound on any cache's hit ratio: 1 - first-references/requests.
    const auto stats = workload::analyze(trace);
    std::cout << 100.0 * (1.0 - static_cast<double>(stats.distinct_objects) /
                                    static_cast<double>(stats.total_requests))
              << "\n";
  }

  std::cout << "\n# Universe size sweep (gain % at 30% proxy cache; requests fixed)\n";
  std::cout << std::left << std::setw(14) << "# objects";
  for (const auto s : schemes) std::cout << std::setw(10) << sim::to_string(s);
  std::cout << "\n";
  for (const ObjectNum objects : {5'000u, 10'000u, 40'000u}) {
    auto wl = bench::paper_workload();
    wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 120'000);
    wl.distinct_objects = objects;
    const auto source = bench::bench_source(wl);
    const auto& trace = *source;
    const auto infinite = core::cluster_infinite_cache_size(trace, 2);

    std::cout << std::setw(14) << objects;
    for (const auto s : schemes) {
      sim::SimConfig cfg;
      cfg.scheme = s;
      cfg.proxy_capacity = std::max<std::size_t>(1, infinite * 30 / 100);
      cfg.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);
      std::cout << std::setw(10) << core::run_single(trace, cfg).gain_percent;
    }
    std::cout << "\n";
  }
  return 0;
}
