// Figure 5(a): Hier-GD latency gain vs proxy-to-proxy latency ratio Ts/Tc.
//
// Ts/Tc in {2, 5, 10}: the cheaper it is to reach a cooperating proxy
// relative to the origin server, the more cooperation pays off.
#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig5a");
  const bench::ObsOptions obs(argc, argv);

  const auto source = bench::bench_source(bench::paper_workload());
  const auto& trace = *source;
  const double ratios[] = {2.0, 5.0, 10.0};

  std::vector<core::SweepResult> results;
  for (const double ratio : ratios) {
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {sim::Scheme::kHierGD};
    cfg.base.latencies = net::LatencyModel::from_ratios(/*ts_over_tc=*/ratio);
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig5a_proxy_latency",
              "ratio" + std::to_string(std::lround(ratio)));
  }

  std::cout << "# Figure 5(a) Hier-GD/NC: latency gain (%) vs cache size for "
               "Ts/Tc ratio sweep\n";
  std::cout << "# cache%   ratio=2    ratio=5    ratio=10\n";
  const auto& percents = results[0].cache_percents;
  for (std::size_t i = 0; i < percents.size(); ++i) {
    std::cout << percents[i];
    for (const auto& r : results) std::cout << "\t" << r.gains[i][0];
    std::cout << "\n";
  }
  return 0;
}
