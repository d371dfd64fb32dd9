// Figure 2(a): latency gain vs proxy cache size, synthetic workload.
//
// All seven schemes over the paper's default ProWGen workload; proxy cache
// size swept from 10% to 100% of the infinite cache size; 2 proxies, 100
// clients per cluster, each contributing 0.1% of the infinite cache size.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig2a");
  const bench::ObsOptions obs(argc, argv);

  const auto source = bench::bench_source(bench::paper_workload());
  const auto& trace = *source;

  core::SweepConfig cfg;  // defaults are exactly the paper's setup
  cfg.threads = core::threads_from_env();
  obs.apply(cfg);
  const auto result = core::run_sweep(trace, cfg);
  core::print_gain_table(std::cout, result,
                         "Figure 2(a): latency gain (%) vs proxy cache size (% of "
                         "infinite cache size), synthetic workload");
  obs.write(result, "fig2a_cache_size");
  return 0;
}
