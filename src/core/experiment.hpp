// Public experiment facade: runs the paper's experiment shape — a sweep of
// proxy cache sizes (as a percentage of the "infinite cache size") for a set
// of schemes over one trace — and prints latency-gain tables in the layout
// of the paper's figures. Every bench binary is a thin wrapper around this.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_source.hpp"

namespace webcache::core {

/// The paper's x-axis: 10% .. 100% of the infinite cache size.
[[nodiscard]] std::vector<double> default_cache_percents();

/// SweepConfig::threads from WEBCACHE_THREADS, for the CLI and the benches:
/// the whole value as an unsigned decimal that fits `unsigned`. 0 (one
/// worker per core) when unset; anything else prints a warning on stderr
/// and also yields 0.
[[nodiscard]] unsigned threads_from_env();

/// The "infinite cache size" of one client cluster's request stream: the
/// number of distinct objects requested more than once by the clients of a
/// single proxy under round-robin request partitioning (paper Section 5.1).
/// The streaming overload runs one chunked pass with O(distinct objects)
/// working memory, so it handles out-of-core traces.
[[nodiscard]] ObjectNum cluster_infinite_cache_size(const workload::TraceSource& source,
                                                    unsigned num_proxies);
[[nodiscard]] ObjectNum cluster_infinite_cache_size(const workload::Trace& trace,
                                                    unsigned num_proxies);

/// A cache capacity of `percent`% of `infinite_size` objects, rounded to the
/// nearest object and at least 1. Throws std::invalid_argument when the
/// product is not finite or does not fit std::size_t.
[[nodiscard]] std::size_t capacity_from_percent(double percent, ObjectNum infinite_size);

struct SweepConfig {
  std::vector<sim::Scheme> schemes{sim::kAllSchemes.begin(), sim::kAllSchemes.end()};
  std::vector<double> cache_percents = default_cache_percents();
  /// Per-client cooperative cache, as a percent of the infinite cache size
  /// (paper: 0.1%, so a 100-client cluster pools 10%).
  double client_cache_percent = 0.1;
  /// Template for everything not swept (scheme/capacities are overwritten).
  /// base.snapshot_interval reaches the runs only with
  /// collect_observability. base.sim_shards must be 0: the sweep already
  /// runs its jobs in parallel, and the sharded engine would change the
  /// cooperative schemes' results.
  sim::SimConfig base{};
  /// Worker threads for the independent (size x scheme) runs; 0 = hardware
  /// concurrency.
  unsigned threads = 0;
  /// Keep each run's obs::Registry in the result (SweepResult::registries /
  /// baseline_registries) for write_metrics_json. Registries are
  /// pre-allocated per job slot on the calling thread and each one is
  /// populated by exactly one run, so their contents — and the exported
  /// JSON — are identical for any thread count.
  bool collect_observability = false;
};

struct SweepResult {
  std::vector<double> cache_percents;
  std::vector<sim::Scheme> schemes;
  /// metrics[i][j]: cache_percents[i] x schemes[j].
  std::vector<std::vector<sim::Metrics>> metrics;
  /// NC baseline per cache size (for the gain denominator).
  std::vector<sim::Metrics> baseline;
  /// gains[i][j] = 1 - L_scheme / L_NC, as a percentage.
  std::vector<std::vector<double>> gains;
  ObjectNum infinite_cache_size = 0;
  std::size_t client_cache_capacity = 0;
  /// Per-run registries, indexed like metrics/baseline. Empty unless
  /// SweepConfig::collect_observability; for an NC scheme column that
  /// reuses the baseline the entry aliases the baseline registry of the
  /// same cache size.
  std::vector<std::vector<std::shared_ptr<obs::Registry>>> registries;
  std::vector<std::shared_ptr<obs::Registry>> baseline_registries;
};

/// Runs the sweep. The NC baseline is always computed with the paper's
/// proxy policy, whatever base.proxy_policy says; an NC column reuses it
/// only when base.proxy_policy is the default. Deterministic regardless of
/// thread count. Throws std::invalid_argument when base.sim_shards != 0. The TraceSource
/// overload is the primary: workers share one source and replay it through
/// positional windows, so a compiled (mmap) trace never materializes and the
/// exports are byte-identical to the in-memory path.
[[nodiscard]] SweepResult run_sweep(const workload::TraceSource& source,
                                    const SweepConfig& config);
[[nodiscard]] SweepResult run_sweep(const workload::Trace& trace, const SweepConfig& config);

/// Prints the gnuplot-style series table the paper's figures plot:
/// one row per cache size, one latency-gain column per scheme.
void print_gain_table(std::ostream& out, const SweepResult& result, const std::string& title);

/// Machine-readable CSV: cache_percent, scheme, latency gain, mean latency,
/// hit ratios per outcome. One row per (size, scheme).
void write_gain_csv(std::ostream& out, const SweepResult& result);

/// Full observability export of a sweep (schema "webcache-metrics/1"): one
/// JSON document with a "runs" array holding, per (cache size, scheme), the
/// latency gain plus that run's complete registry body. Requires the sweep
/// to have been run with collect_observability; throws std::logic_error
/// otherwise. Byte-identical output for any thread count.
void write_metrics_json(std::ostream& out, const SweepResult& result,
                        const std::string& name);

/// Single-configuration convenience used by examples: runs `scheme` and NC
/// at one cache size and returns (metrics, gain%). The NC baseline runs the
/// paper's proxy policy, whatever config.proxy_policy says.
struct SingleRun {
  sim::Metrics metrics;
  sim::Metrics baseline;
  double gain_percent = 0.0;
  /// The scheme run's registry (config.registry when supplied, else the one
  /// created for the run) and the NC baseline's private registry.
  std::shared_ptr<obs::Registry> registry;
  std::shared_ptr<obs::Registry> baseline_registry;
};
[[nodiscard]] SingleRun run_single(const workload::TraceSource& source, sim::SimConfig config);
[[nodiscard]] SingleRun run_single(const workload::Trace& trace, sim::SimConfig config);

}  // namespace webcache::core
