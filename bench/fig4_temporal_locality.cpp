// Figure 4: sensitivity to temporal locality (ProWGen LRU stack size).
//
// Panels FC, SC-EC, FC-EC, Hier-GD; stack size in {5%, 20%, 60%} of the
// multi-referenced objects. The paper's finding: smaller stacks (weaker
// locality) yield larger gains for the coordinated schemes, because strong
// locality makes even the isolated NC cache effective.
#include "bench_common.hpp"

#include <cmath>

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig4");
  const bench::ObsOptions obs(argc, argv);

  const double stacks[] = {0.05, 0.20, 0.60};
  const sim::Scheme panels[] = {sim::Scheme::kFC, sim::Scheme::kSC_EC,
                                sim::Scheme::kFC_EC, sim::Scheme::kHierGD};

  std::vector<core::SweepResult> results;
  for (const double stack : stacks) {
    auto wl = bench::paper_workload();
    wl.lru_stack_fraction = stack;
    // Run the locality sensitivity at full recency bias so the stack knob
    // spans its whole dynamic range (see prowgen.hpp).
    wl.recency_bias = 0.5;
    const auto source = bench::bench_source(wl);
    const auto& trace = *source;
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {panels[0], panels[1], panels[2], panels[3]};
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig4_temporal_locality",
              "stack" + std::to_string(std::lround(stack * 100)));
  }

  for (std::size_t p = 0; p < std::size(panels); ++p) {
    std::cout << "# Figure 4 panel " << sim::to_string(panels[p])
              << "/NC: latency gain (%) vs cache size for LRU stack sweep\n";
    std::cout << "# cache%   stack=5%   stack=20%  stack=60%\n";
    const auto& percents = results[0].cache_percents;
    for (std::size_t i = 0; i < percents.size(); ++i) {
      std::cout << percents[i];
      for (std::size_t s = 0; s < std::size(stacks); ++s) {
        std::cout << "\t" << results[s].gains[i][p];
      }
      std::cout << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
