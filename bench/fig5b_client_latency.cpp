// Figure 5(b): Hier-GD latency gain vs client-to-proxy latency ratio Ts/Tl.
//
// Ts/Tl in {5, 10, 20}: a relatively faster last hop makes every cached
// outcome cheaper relative to the origin server, raising the gain.
#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig5b");
  const bench::ObsOptions obs(argc, argv);

  const auto source = bench::bench_source(bench::paper_workload());
  const auto& trace = *source;
  const double ratios[] = {5.0, 10.0, 20.0};

  std::vector<core::SweepResult> results;
  for (const double ratio : ratios) {
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {sim::Scheme::kHierGD};
    cfg.base.latencies = net::LatencyModel::from_ratios(/*ts_over_tc=*/10.0,
                                                        /*ts_over_tl=*/ratio);
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig5b_client_latency",
              "ratio" + std::to_string(std::lround(ratio)));
  }

  std::cout << "# Figure 5(b) Hier-GD/NC: latency gain (%) vs cache size for "
               "Ts/Tl ratio sweep\n";
  std::cout << "# cache%   ratio=5    ratio=10   ratio=20\n";
  const auto& percents = results[0].cache_percents;
  for (std::size_t i = 0; i < percents.size(); ++i) {
    std::cout << percents[i];
    for (const auto& r : results) std::cout << "\t" << r.gains[i][0];
    std::cout << "\n";
  }
  return 0;
}
