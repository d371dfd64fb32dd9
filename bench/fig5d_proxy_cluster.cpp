// Figure 5(d): impact of the proxy cluster size on Hier-GD.
//
// Clusters of 2, 5 and 10 proxies (pairwise-equal proxy latency, as the
// paper assumes). More cooperating proxies — and their client clusters —
// mean more places a missed object can be found short of the origin server.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig5d");
  const bench::ObsOptions obs(argc, argv);

  const auto source = bench::bench_source(bench::paper_workload());
  const auto& trace = *source;
  const unsigned cluster_sizes[] = {2, 5, 10};

  std::vector<core::SweepResult> results;
  for (const unsigned proxies : cluster_sizes) {
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {sim::Scheme::kHierGD};
    cfg.base.num_proxies = proxies;
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig5d_proxy_cluster",
              "proxies" + std::to_string(proxies));
  }

  std::cout << "# Figure 5(d) Hier-GD/NC: latency gain (%) vs cache size for "
               "proxy cluster sizes\n";
  std::cout << "# cache%   2 proxies  5 proxies  10 proxies\n";
  const auto& percents = results[0].cache_percents;
  for (std::size_t i = 0; i < percents.size(); ++i) {
    std::cout << percents[i];
    for (const auto& r : results) std::cout << "\t" << r.gains[i][0];
    std::cout << "\n";
  }
  return 0;
}
