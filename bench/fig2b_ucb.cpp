// Figure 2(b): latency gain vs proxy cache size, UCB Home-IP trace.
//
// The original 1997 trace is no longer obtainable; the UCB-like generator
// reproduces its published workload statistics (see DESIGN.md,
// "Substitutions"). Expect the same scheme ordering as Figure 2(a) at
// visibly lower absolute gains — the signature of the heavier one-timer mix.
#include "bench_common.hpp"

#include "workload/ucb_like.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig2b");
  const bench::ObsOptions obs(argc, argv);

  workload::UcbLikeConfig ucb;
  // Default to ~1/10 of the 9.2M-request original: the gain curves are
  // stable at this volume and the bench stays interactive.
  ucb.scale = 0.1 * bench::bench_scale();
  ucb.scale = std::max(ucb.scale, 0.002);
  const auto source = bench::bench_source([&] { return workload::generate_ucb_like(ucb); });
  const auto& trace = *source;

  core::SweepConfig cfg;
  cfg.threads = core::threads_from_env();
  obs.apply(cfg);
  const auto result = core::run_sweep(trace, cfg);
  core::print_gain_table(std::cout, result,
                         "Figure 2(b): latency gain (%) vs proxy cache size (% of "
                         "infinite cache size), UCB-like trace (" +
                             std::to_string(trace.size()) + " requests)");
  obs.write(result, "fig2b_ucb");
  return 0;
}
