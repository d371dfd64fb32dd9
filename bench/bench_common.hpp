// Shared plumbing for the figure-reproduction benches.
//
// Every bench prints the series of one paper figure: latency gain (%) per
// proxy-cache size, one column per scheme/parameter value, in a
// gnuplot-ready table. Absolute numbers depend on the synthetic substrate;
// the *shape* (ordering, crossovers, trends) is what reproduces the paper —
// EXPERIMENTS.md records the comparison.
//
// Environment knobs:
//   WEBCACHE_BENCH_SCALE  (default 1.0) scales the request volume, e.g.
//                         WEBCACHE_BENCH_SCALE=0.1 ./fig2a_cache_size.
//                         Any positive value works; > 1 oversamples.
//   WEBCACHE_THREADS      worker threads for run_sweep (default 0 = one per
//                         core; core::threads_from_env). Results are
//                         bitwise identical regardless.
//   WEBCACHE_TRACE_BIN    replay a compiled wctrace/1 file through the mmap
//                         reader instead of generating the ProWGen workload.
//                         Every sweep in the bench then replays that one
//                         trace, so it is meant for single-workload benches
//                         (fig2a, fig5*, abl_*) and the CI golden-diff gate
//                         that proves streamed == in-memory exports.
//
// Every simulation runs on the sequential engine: a sweep already runs its
// jobs in parallel (core::run_sweep rejects sharded jobs), and the sharded
// engine's epoch digests would change the figures. Observability exports
// are requested with --metrics-out FILE [--snapshot-interval N].
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_source.hpp"
#include "workload/wctrace.hpp"

namespace webcache::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("WEBCACHE_BENCH_SCALE")) {
    char* end = nullptr;
    const double s = std::strtod(env, &end);
    if (end != env && *end == '\0' && s > 0.0) return s;
    std::cerr << "ignoring invalid WEBCACHE_BENCH_SCALE=" << env << "\n";
  }
  return 1.0;
}

/// The paper's default synthetic workload (Section 5.1): one million
/// requests over 10,000 distinct objects, 50% one-timers, alpha = 0.7.
inline workload::ProWGenConfig paper_workload() {
  workload::ProWGenConfig cfg;
  cfg.total_requests = static_cast<std::uint64_t>(1'000'000.0 * bench_scale());
  cfg.distinct_objects = 10'000;
  cfg.one_timer_fraction = 0.5;
  cfg.zipf_alpha = 0.7;
  cfg.lru_stack_fraction = 0.2;
  cfg.clients = 100;
  cfg.seed = 2003;  // publication year, for flavour
  return cfg;
}

/// The request stream a bench sweeps over. Generates `cfg` in memory unless
/// WEBCACHE_TRACE_BIN names a compiled wctrace/1 file, in which case that
/// file replays through the mmap reader in bounded memory (see the env-knob
/// comment at the top of this header for the sharp edge on multi-workload
/// benches).
template <typename MakeTrace>
  requires std::invocable<MakeTrace&>
std::shared_ptr<const workload::TraceSource> bench_source(MakeTrace&& make_trace) {
  if (const char* env = std::getenv("WEBCACHE_TRACE_BIN")) {
    std::cerr << "# replaying compiled trace " << env << "\n";
    return workload::open_trace_source(env);
  }
  return workload::make_source(make_trace());
}

inline std::shared_ptr<const workload::TraceSource> bench_source(
    const workload::ProWGenConfig& cfg) {
  return bench_source([&cfg] { return workload::ProWGen(cfg).generate(); });
}

/// Observability plumbing shared by the sweep benches: parses
/// `--metrics-out FILE` and `--snapshot-interval N` from argv, switches the
/// sweep into collect_observability mode, and writes the
/// "webcache-metrics/1" JSON export after the run. Benches that run several
/// sweeps pass a distinct label per sweep; the label is inserted before the
/// file extension ("out.json" + label "a05" -> "out.a05.json").
class ObsOptions {
 public:
  ObsOptions(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--metrics-out" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg == "--snapshot-interval" && i + 1 < argc) {
        parse_interval(argv[++i]);
      } else {
        std::cerr << "ignoring unknown bench argument: " << arg << "\n";
      }
    }
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Turns on registry collection for the sweep when an output was requested.
  void apply(core::SweepConfig& config) const {
    config.collect_observability = enabled();
    config.base.snapshot_interval = snapshot_interval_;
  }

  /// Writes the sweep's metrics export. Single-sweep benches pass an empty
  /// label (the file goes exactly where --metrics-out points, which the
  /// metrics-gating test relies on); multi-sweep benches pass one label per
  /// sweep. No-op when no output was requested.
  void write(const core::SweepResult& result, const std::string& bench_name,
             const std::string& label = {}) const {
    if (!enabled()) return;
    std::string path = path_;
    if (!label.empty()) {
      const auto dot = path.find_last_of('.');
      const auto slash = path.find_last_of('/');
      if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
        path = path.substr(0, dot) + "." + label + path.substr(dot);
      } else {
        path += "." + label;
      }
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return;
    }
    const std::string name = label.empty() ? bench_name : bench_name + " " + label;
    core::write_metrics_json(out, result, name);
    std::cout << "# [metrics written to " << path << "]\n";
  }

 private:
  void parse_interval(const char* value) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (end != value && *end == '\0') {
      snapshot_interval_ = n;
    } else {
      std::cerr << "ignoring invalid --snapshot-interval=" << value << "\n";
    }
  }

  std::string path_;
  std::uint64_t snapshot_interval_ = 0;
};

/// Timer helper: prints elapsed seconds after each bench section.
class SectionTimer {
 public:
  explicit SectionTimer(std::string label)
      : label_(std::move(label)), start_(std::chrono::steady_clock::now()) {}
  ~SectionTimer() {
    const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_);
    std::cout << "# [" << label_ << " took " << dt.count() << " s]\n\n";
  }

 private:
  std::string label_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace webcache::bench
