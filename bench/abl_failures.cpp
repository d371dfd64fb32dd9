// Ablation: resilience of Hier-GD to client-machine churn.
//
// The paper leans on Pastry for fault-resilience but never quantifies what
// client crashes cost. This bench expands a deterministic fault::ChurnSpec
// into a schedule that crashes a growing fraction of each cluster starting
// at the trace midpoint (the documented offset: the system is warmed, so the
// loss is measured against a populated client tier, not a cold one), and
// sweeps a recovery axis — crashed machines either stay down or rejoin a
// tenth of the trace later with cold caches. SC (no client caches) is the
// floor.
#include "bench_common.hpp"

#include <iomanip>

#include "fault/churn_schedule.hpp"

int main() {
  using namespace webcache;
  bench::SectionTimer timer("abl_failures");

  auto wl = bench::paper_workload();
  wl.total_requests = std::max<std::uint64_t>(wl.total_requests / 2, 50'000);
  const auto source = bench::bench_source(wl);
  const auto& trace = *source;
  const auto infinite = core::cluster_infinite_cache_size(trace, 2);

  sim::SimConfig base;
  base.scheme = sim::Scheme::kHierGD;
  base.proxy_capacity = std::max<std::size_t>(1, infinite * 20 / 100);
  base.client_cache_capacity = std::max<std::size_t>(1, infinite / 1000);

  // The floor: simple cooperation with no client caches at all.
  sim::SimConfig sc = base;
  sc.scheme = sim::Scheme::kSC;
  const auto sc_run = core::run_single(trace, sc);

  std::cout << "# Client-churn resilience: Hier-GD with a fraction of each cluster "
               "crashing from the trace midpoint\n";
  std::cout << "# recovery: none = crashed machines stay down; rejoin = back "
               "(cold) after trace/10 requests\n";
  std::cout << "# (SC, the no-client-cache floor, gains "
            << std::fixed << std::setprecision(2) << sc_run.gain_percent << "%)\n";
  std::cout << std::left << std::setw(12) << "# crashed%" << std::setw(10) << "recovery"
            << std::setw(10) << "gain%" << std::setw(12) << "p2p-hits"
            << std::setw(14) << "stale-lookups" << "wasted-latency\n";

  for (const double crashed_fraction : {0.0, 0.1, 0.25, 0.5}) {
    for (const std::uint64_t recover_after : {std::uint64_t{0}, trace.size() / 10}) {
      if (crashed_fraction == 0.0 && recover_after > 0) continue;  // nothing to recover
      sim::SimConfig cfg = base;
      fault::ChurnSpec spec;
      spec.start = trace.size() / 2;  // crash into a warmed system
      spec.crashes = static_cast<ClientNum>(
          crashed_fraction * static_cast<double>(cfg.clients_per_cluster));
      spec.recover_after = recover_after;
      if (spec.crashes > 0) {
        cfg.churn_events = fault::make_schedule(spec, trace.size(), cfg.num_proxies,
                                                cfg.clients_per_cluster);
      }
      const auto run = core::run_single(trace, cfg);
      std::cout << std::setw(12) << 100.0 * crashed_fraction << std::setw(10)
                << (recover_after > 0 ? "rejoin" : "none") << std::setw(10)
                << run.gain_percent << std::setw(12) << run.metrics.hits_local_p2p
                << std::setw(14) << run.metrics.messages.directory_false_positives
                << run.metrics.wasted_p2p_latency << "\n";
    }
  }
  return 0;
}
