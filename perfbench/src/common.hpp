// Shared plumbing of the benchmark program: wall clocks, the span recorder
// used by the traced run, timing statistics, and the metric/result records
// every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One recorded span: a call the benchmark made into a layer.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  int run = 0;         ///< repetition the span belongs to
};

/// Times calls into the layers. Every timed() call returns its duration;
/// while recording is on it also keeps a span (name, start, end, parent,
/// run id) in memory. Spans are written once, by write_jsonl(), at the end.
class Tracer {
 public:
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }
  void set_run(int run) { run_ = run; }

  template <typename Fn>
  double timed(std::string_view name, Fn&& fn) {
    const int id = open(name);
    const auto start = Clock::now();
    try {
      fn();
    } catch (...) {
      close(id);
      throw;
    }
    const double elapsed = seconds_since(start);
    close(id);
    return elapsed;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void write_jsonl(const std::string& path) const;

 private:
  int open(std::string_view name);
  void close(int id);

  Clock::time_point origin_ = Clock::now();
  bool recording_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A named measurement with its unit, as printed and as put in the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< shown in the human-readable table only
};

// --- timing statistics ----------------------------------------------------
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolation quantile (q in [0, 1]) of `values`.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// A timing distribution reported the way the benchmark reports every
/// distribution: the median, plus the highest whole percentile above the
/// median that still has at least ten samples beyond it (0 when there are
/// fewer than 21 samples), with the sample count.
struct Distribution {
  double median = 0.0;
  int tail_percentile = 0;
  double tail = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Distribution summarize(const std::vector<double>& values);
[[nodiscard]] std::string describe(const Distribution& d, const std::string& unit);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
