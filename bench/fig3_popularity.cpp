// Figure 3: sensitivity to the object popularity distribution (Zipf alpha).
//
// Four panels — FC, SC-EC, FC-EC and Hier-GD — each plotting latency gain
// vs proxy cache size for alpha in {0.5, 0.7, 1.0}. The paper's finding:
// smaller alpha (less skew, larger working set) yields larger gains, because
// cooperation only helps beyond what a single cache already captures.
#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig3");
  const bench::ObsOptions obs(argc, argv);

  const double alphas[] = {0.5, 0.7, 1.0};
  const sim::Scheme panels[] = {sim::Scheme::kFC, sim::Scheme::kSC_EC,
                                sim::Scheme::kFC_EC, sim::Scheme::kHierGD};

  // One sweep per alpha (trace changes with alpha); reorganize into
  // per-panel tables afterwards.
  std::vector<core::SweepResult> results;
  for (const double alpha : alphas) {
    auto wl = bench::paper_workload();
    wl.zipf_alpha = alpha;
    const auto source = bench::bench_source(wl);
    const auto& trace = *source;
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {panels[0], panels[1], panels[2], panels[3]};
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig3_popularity",
              "alpha" + std::to_string(std::lround(alpha * 100)));
  }

  for (std::size_t p = 0; p < std::size(panels); ++p) {
    std::cout << "# Figure 3 panel " << sim::to_string(panels[p])
              << "/NC: latency gain (%) vs cache size for alpha sweep\n";
    std::cout << "# cache%   alpha=0.5  alpha=0.7  alpha=1.0\n";
    const auto& percents = results[0].cache_percents;
    for (std::size_t i = 0; i < percents.size(); ++i) {
      std::cout << percents[i];
      for (std::size_t a = 0; a < std::size(alphas); ++a) {
        std::cout << "\t" << results[a].gains[i][p];
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
