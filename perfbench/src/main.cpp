// Benchmark program: runs one workload, checks its outputs, prints every
// metric by name and unit, and ends with one JSON result line.
//
//   webcache_perfbench --workload <paper_sweep|stream_large>
//       --seed N --seconds S --trace 0|1 --work-dir DIR --refs FILE
//       [--spans-out FILE] [--record-digests FILE]
//
// --trace 0 measures the end-to-end metrics (tracing off); --trace 1 is the
// separate traced run that reports the per-layer metrics and writes its
// spans to --spans-out. --record-digests appends the reference digests of
// every sequential simulation instead of comparing them (run it for the
// default and the held-out seed to refresh reference_digests.txt).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "webcache_perfbench: " << why << "\n";
  std::exit(2);
}

std::string json_number(double v) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

void print_table(const char* title, const std::vector<perfbench::Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const auto& m : metrics) {
    std::printf("%-32s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string refs, spans_out, record;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.traced = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--refs") {
      refs = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--record-digests") {
      record = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.work_dir.empty() || !have_trace || (refs.empty() && record.empty())) {
    usage("needs --workload, --trace, --work-dir and --refs");
  }
  o.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  try {
    perfbench::Checker checker(o.workload, o.seed, refs, record);
    perfbench::Tracer tracer;
    const auto report = perfbench::run_workload(o, checker, tracer);

    std::printf("# workload %s, seed %llu, %s run, %u worker threads\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.traced ? "traced" : "untraced",
                o.threads);
    print_table("end-to-end (host time unless marked simulated)", report.end_to_end);
    if (o.traced) print_table("per-layer (n/a: layer not on this workload's path)",
                              report.per_layer);
    for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
    const double failed_frac = static_cast<double>(checker.failed()) /
                               static_cast<double>(std::max<std::uint64_t>(1, checker.attempted()));
    std::printf("# checks: %llu simulations, %llu failed (failed_frac %.6g ratio), "
                "%llu reference digests compared%s\n",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()), failed_frac,
                static_cast<unsigned long long>(checker.digests_compared()),
                checker.has_references() ? "" : " (no references for this seed: "
                                                "repetitions checked against each other)");
    for (const auto& p : checker.problems()) std::printf("# FAILED %s\n", p.c_str());
    if (o.traced && !spans_out.empty()) {
      tracer.write_jsonl(spans_out);
      std::printf("# %zu spans written to %s\n", tracer.spans().size(), spans_out.c_str());
    }

    const auto& reported = o.traced ? report.per_layer : report.end_to_end;
    bool finite = true;
    std::string metrics;
    for (const auto& m : reported) {
      finite = finite && std::isfinite(m.value);
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + m.name + "\": {\"value\": " +
                 json_number(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
    if (!finite) std::printf("# FAILED a metric is not a finite number\n");
    const bool correct = finite && checker.failed() == 0 && checker.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()), metrics.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "webcache_perfbench: " << e.what() << "\n";
    return 1;
  }
}
