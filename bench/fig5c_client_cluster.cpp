// Figure 5(c): impact of the client cluster size on Hier-GD.
//
// Clusters of 100, 400, 800 and 1000 clients (each client contributing 0.1%
// of the infinite cache size, so the pooled P2P cache grows from 10% to
// 100% of it), with SC and FC as proxy-only reference curves. The paper's
// finding: more client caches, more gain — Hier-GD approaches optimal with
// a large population, especially at small proxy caches.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  bench::SectionTimer timer("fig5c");
  const bench::ObsOptions obs(argc, argv);

  const auto source = bench::bench_source(bench::paper_workload());
  const auto& trace = *source;
  const ClientNum cluster_sizes[] = {100, 400, 800, 1000};

  // Reference curves: SC and FC do not use client caches.
  core::SweepConfig ref_cfg;
  ref_cfg.threads = core::threads_from_env();
  ref_cfg.schemes = {sim::Scheme::kSC, sim::Scheme::kFC};
  obs.apply(ref_cfg);
  const auto ref = core::run_sweep(trace, ref_cfg);
  obs.write(ref, "fig5c_client_cluster", "ref");

  std::vector<core::SweepResult> results;
  for (const ClientNum clients : cluster_sizes) {
    core::SweepConfig cfg;
    cfg.threads = core::threads_from_env();
    cfg.schemes = {sim::Scheme::kHierGD};
    cfg.base.clients_per_cluster = clients;
    obs.apply(cfg);
    results.push_back(core::run_sweep(trace, cfg));
    obs.write(results.back(), "fig5c_client_cluster",
              "clients" + std::to_string(clients));
  }

  std::cout << "# Figure 5(c): latency gain (%) vs cache size; Hier-GD for "
               "client cluster sizes, SC/FC reference\n";
  std::cout << "# cache%   SC         FC         HierGD(100) HierGD(400) "
               "HierGD(800) HierGD(1000)\n";
  const auto& percents = ref.cache_percents;
  for (std::size_t i = 0; i < percents.size(); ++i) {
    std::cout << percents[i] << "\t" << ref.gains[i][0] << "\t" << ref.gains[i][1];
    for (const auto& r : results) std::cout << "\t" << r.gains[i][0];
    std::cout << "\n";
  }
  return 0;
}
