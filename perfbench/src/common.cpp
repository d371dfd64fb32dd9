#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int Tracer::open(std::string_view name) {
  if (!recording_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), seconds_since(origin_), 0.0, parent, run_});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
  open_.pop_back();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %d, \"run\": %d}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, s.run);
    out << line;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Distribution summarize(const std::vector<double>& values) {
  Distribution d;
  d.samples = values.size();
  d.median = median(values);
  // Highest whole percentile p with n * (1 - p/100) >= 10 samples beyond it.
  const double n = static_cast<double>(values.size());
  const int p = n > 0.0 ? static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n))) : 0;
  if (p > 50) {
    d.tail_percentile = p;
    d.tail = quantile(values, p / 100.0);
  }
  return d;
}

std::string describe(const Distribution& d, const std::string& unit) {
  char text[160];
  if (d.tail_percentile > 0) {
    std::snprintf(text, sizeof text, "median %.4g %s, p%d %.4g %s (n=%zu)", d.median,
                  unit.c_str(), d.tail_percentile, d.tail, unit.c_str(), d.samples);
  } else {
    std::snprintf(text, sizeof text, "median %.4g %s (n=%zu; too few samples for a tail)",
                  d.median, unit.c_str(), d.samples);
  }
  return text;
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
