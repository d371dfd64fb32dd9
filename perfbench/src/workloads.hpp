// The benchmark's workloads. Each one is an outside caller of the library's
// public API: it generates its inputs from the seed, runs the simulations,
// checks every one of them (checks.hpp) and reports the end-to-end metrics;
// in the traced run it also reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2003;
  double seconds = 10.0;  ///< measuring time of the untraced run
  bool traced = false;
  std::string work_dir;   ///< work files (compiled traces, exports)
  unsigned threads = 4;   ///< worker threads / shards: min(hardware, 4)
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< extra human-readable lines
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Untraced: after a warm-up, repeats the whole workload
/// (setup, timed simulation, export) while another repetition fits in
/// `seconds`, at least two or three times, and reports medians. Traced: one
/// untraced and one traced repetition of the same seed, then the per-layer
/// measurements.
[[nodiscard]] Report run_workload(const Options& options, Checker& checker, Tracer& tracer);

}  // namespace perfbench
