// webcache_cli — command-line driver for the simulator.
//
//   webcache_cli generate [workload flags] --out trace.txt
//   webcache_cli trace compile --out trace.wct
//                         [--in trace.txt [--squid] | workload flags]
//   webcache_cli trace info --trace trace.wct [--verify]
//   webcache_cli analyze  --trace trace.txt [--squid]
//   webcache_cli simulate --scheme Hier-GD [workload/cluster flags]
//                         [--churn-crashes N --churn-recover-after N
//                          --churn-joins N --churn-repair-every N
//                          --churn-start N --churn-seed N --churn-loss X
//                          --audit-interval N] [--shards N]
//                         [--metrics-out m.json --trace-out t.csv
//                          --snapshot-interval N]
//   webcache_cli sweep    [--schemes NC,SC,...] [--cache-pcts 10,20,...]
//                         [workload/cluster flags] [--csv out.csv]
//                         [--metrics-out m.json --snapshot-interval N]
//
// --trace accepts either the text format or a compiled wctrace/1 binary
// (sniffed by magic). simulate and sweep replay a binary trace through the
// mmap reader in bounded memory; `trace compile` converts text/Squid logs to
// binary, or streams a ProWGen workload straight to disk without ever
// materializing it.
//
// Workload flags (synthetic ProWGen; ignored when --trace/--squid given):
//   --requests N --objects N --alpha X --one-timers X --stack X --seed N
//   --amplifier X --recency-bias X
// Cluster flags:
//   --proxies N --clients N --cache-pct X --client-cache-pct X
//   --directory exact|bloom --bloom-fpr X --no-diversion
//   --ts-tc X --ts-tl X --tp2p-tl X --browser-cache N
//   --proxy-policy P        proxy-tier replacement/admission policy override
//                           (default | lru | lfu | gd | tinylfu-lru |
//                           w-tinylfu | arc); "default" keeps each scheme's
//                           paper policy. FC/FC-EC reject overrides.
//   --client-policy P       client-tier policy override (Hier-GD/Squirrel
//                           cooperative caches, *-EC second tier); same names
// Engine flag (simulate only):
//   --shards N              intra-run sharding: partition ONE simulation
//                           across N worker threads (clusters round-robin
//                           over shards; byte-identical results for any
//                           N >= 1; default 0 = the sequential engine the
//                           figures use). See README "Sharded runs".
// Observability flags (schema "webcache-metrics/1", see README):
//   --metrics-out FILE      full registry export; .csv extension selects the
//                           flat CSV form, anything else writes JSON
//   --trace-out FILE        request-level event trace CSV (simulate only;
//                           enables the ring tracer, default 1M events)
//   --trace-capacity N      ring capacity for --trace-out
//   --snapshot-interval N   counter/gauge snapshot every N requests
// Fault-injection flags (simulate only; need Hier-GD or Squirrel):
//   --churn-crashes N       client crashes per cluster (deterministic
//                           schedule from --churn-seed)
//   --churn-recover-after N crashed clients rejoin N requests later
//   --churn-joins N         fresh client machines joining per cluster
//   --churn-repair-every N  periodic Pastry maintenance pass
//   --churn-start N         first trace position eligible for churn
//                           (default: a quarter into the trace)
//   --churn-seed N          schedule seed (default 2003)
//   --churn-loss X          P2P message loss probability in [0, 1); each
//                           lost transfer costs one retry (an extra Tp2p)
//   --audit-interval N      run the cross-layer invariant auditor every N
//                           requests; any violation exits non-zero
//
// Environment:
//   WEBCACHE_THREADS     worker threads for sweep (default 0 = one per core;
//                        results are bitwise identical regardless).
//
// Numeric flags must be a whole token: integers in the range of their
// setting (no sign, fraction or exponent), reals finite, percentages > 0.
//
// Exit code 0 on success, 2 on usage errors.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "fault/churn_schedule.hpp"
#include "fault/invariant_auditor.hpp"
#include "workload/prowgen.hpp"
#include "workload/squid_log.hpp"
#include "workload/stack_distance.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wctrace.hpp"

namespace {

using namespace webcache;

[[noreturn]] void usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: webcache_cli <generate|trace|analyze|simulate|sweep> [flags]\n"
      "  generate --out FILE [--requests N --objects N --alpha X --one-timers X\n"
      "           --stack X --amplifier X --recency-bias X --clients N --seed N]\n"
      "  trace compile --out FILE.wct [--in FILE [--squid] | workload flags]\n"
      "  trace info --trace FILE.wct [--verify]\n"
      "  analyze  --trace FILE [--squid]\n"
      "  simulate --scheme NAME [workload flags | --trace FILE [--squid]]\n"
      "           [--proxies N --clients N --cache-pct X --client-cache-pct X\n"
      "            --directory exact|bloom --bloom-fpr X --no-diversion\n"
      "            --ts-tc X --ts-tl X --tp2p-tl X --browser-cache N\n"
      "            --proxy-policy P --client-policy P]\n"
      "           [--churn-crashes N --churn-recover-after N --churn-joins N\n"
      "            --churn-repair-every N --churn-start N --churn-seed N\n"
      "            --churn-loss X --audit-interval N] [--shards N]\n"
      "           [--metrics-out FILE --trace-out FILE --trace-capacity N\n"
      "            --snapshot-interval N]\n"
      "  sweep    [--schemes A,B,...] [--cache-pcts 10,20,...] [--csv FILE]\n"
      "           [same workload/cluster flags as simulate]\n"
      "           [--metrics-out FILE --snapshot-interval N]\n"
      "schemes: NC SC FC NC-EC SC-EC FC-EC Hier-GD Squirrel\n"
      "--trace accepts the text format or a compiled wctrace/1 binary (.wct);\n"
      "binary traces replay through the mmap reader in bounded memory\n";
  std::exit(2);
}

/// Parses the whole of `token` as a T: an integer that fits T, or a finite
/// real. std::nullopt for anything else, including trailing characters.
template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Minimal flag parser: --key value pairs plus boolean --key switches.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean switch
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }

  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto value = parse_number<double>(it->second);
    if (!value) usage("flag --" + key + " needs a finite number, got '" + it->second + "'");
    return *value;
  }

  /// A cache-size percentage: a finite number above zero.
  [[nodiscard]] double percent(const std::string& key, double fallback) const {
    const double value = num(key, fallback);
    if (!(value > 0.0)) {
      usage("flag --" + key + " needs a positive percentage, got '" + str(key, "") + "'");
    }
    return value;
  }

  /// An integer setting of type T; values outside T's range are rejected.
  template <typename T>
  [[nodiscard]] T integer(const std::string& key, std::type_identity_t<T> fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto value = parse_number<T>(it->second);
    if (!value) {
      usage("flag --" + key + " needs an integer in [" +
            std::to_string(std::numeric_limits<T>::min()) + ", " +
            std::to_string(std::numeric_limits<T>::max()) + "], got '" + it->second + "'");
    }
    return *value;
  }

  void reject_unknown(const std::vector<std::string>& known) const {
    for (const auto& [key, _] : values_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == key;
      if (!ok) usage("unknown flag --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

const std::vector<std::string> kWorkloadFlags = {
    "requests", "objects", "alpha", "one-timers", "stack",
    "amplifier", "recency-bias", "clients", "seed",
};
const std::vector<std::string> kClusterFlags = {
    "proxies", "cache-pct", "client-cache-pct", "directory", "bloom-fpr",
    "no-diversion", "ts-tc", "ts-tl", "tp2p-tl", "browser-cache", "proxy-policy",
    "client-policy",
};
const std::vector<std::string> kChurnFlags = {
    "churn-crashes", "churn-recover-after", "churn-joins", "churn-repair-every",
    "churn-start",   "churn-seed",          "churn-loss",  "audit-interval",
};

workload::ProWGenConfig workload_from(const Flags& flags) {
  workload::ProWGenConfig cfg;
  cfg.total_requests = flags.integer<std::uint64_t>("requests", 200'000);
  cfg.distinct_objects = flags.integer<ObjectNum>("objects", 10'000);
  cfg.zipf_alpha = flags.num("alpha", cfg.zipf_alpha);
  cfg.one_timer_fraction = flags.num("one-timers", cfg.one_timer_fraction);
  cfg.lru_stack_fraction = flags.num("stack", cfg.lru_stack_fraction);
  cfg.temporal_amplifier = flags.num("amplifier", cfg.temporal_amplifier);
  cfg.recency_bias = flags.num("recency-bias", cfg.recency_bias);
  cfg.clients = flags.integer<ClientNum>("clients", cfg.clients);
  cfg.seed = flags.integer<std::uint64_t>("seed", cfg.seed);
  return cfg;
}

workload::Trace trace_from(const Flags& flags) {
  if (flags.has("trace")) {
    const auto path = flags.str("trace", "");
    if (flags.has("squid")) {
      auto result = workload::read_squid_log_file(path);
      std::cerr << "squid log: kept " << result.trace.size() << ", filtered "
                << result.lines_skipped << ", malformed " << result.lines_malformed << "\n";
      return std::move(result.trace);
    }
    if (workload::is_wctrace_file(path)) return workload::read_wctrace_file(path);
    return workload::read_trace_file(path);
  }
  return workload::ProWGen(workload_from(flags)).generate();
}

/// The streaming front door for simulate/sweep: a compiled wctrace gets the
/// mmap reader (bounded memory, zero copies); everything else materializes
/// behind the in-memory adapter.
std::shared_ptr<const workload::TraceSource> source_from(const Flags& flags) {
  if (flags.has("trace") && !flags.has("squid") &&
      workload::is_wctrace_file(flags.str("trace", ""))) {
    return workload::open_trace_source(flags.str("trace", ""));
  }
  return workload::make_source(trace_from(flags));
}

sim::SimConfig cluster_from(const Flags& flags, const workload::TraceSource& trace) {
  sim::SimConfig cfg;
  cfg.num_proxies = flags.integer<unsigned>("proxies", 2);
  cfg.clients_per_cluster = flags.integer<ClientNum>("clients", 100);
  cfg.latencies = net::LatencyModel::from_ratios(
      flags.num("ts-tc", 10.0), flags.num("ts-tl", 20.0), flags.num("tp2p-tl", 1.4));

  const auto infinite = core::cluster_infinite_cache_size(trace, cfg.num_proxies);
  const auto capacity = [&](const std::string& flag, double fallback) {
    try {
      return core::capacity_from_percent(flags.percent(flag, fallback), infinite);
    } catch (const std::invalid_argument& e) {
      usage("flag --" + flag + ": " + e.what());
    }
  };
  cfg.proxy_capacity = capacity("cache-pct", 30.0);
  cfg.client_cache_capacity = capacity("client-cache-pct", 0.1);

  const auto dir = flags.str("directory", "exact");
  if (dir == "bloom") {
    cfg.directory = sim::DirectoryKind::kBloom;
  } else if (dir != "exact") {
    usage("--directory must be exact or bloom");
  }
  cfg.bloom_target_fpr = flags.num("bloom-fpr", cfg.bloom_target_fpr);
  cfg.enable_diversion = !flags.has("no-diversion");
  cfg.browser_cache_capacity = flags.integer<std::size_t>("browser-cache", 0);

  // Policy overrides; unset keeps each scheme's paper policy.
  const auto parse_policy = [&flags](const std::string& flag) {
    const auto name = flags.str(flag, "");
    if (name.empty()) return cache::PolicyKind::kDefault;
    const auto kind = cache::policy_from_string(name);
    if (!kind) usage("--" + flag + " must be one of: " + cache::policy_names());
    return *kind;
  };
  cfg.proxy_policy = parse_policy("proxy-policy");
  cfg.client_policy = parse_policy("client-policy");
  return cfg;
}

/// --metrics-out writer: a .csv extension selects the flat CSV form, any
/// other name gets the JSON document.
void write_registry_to(const std::string& path, const obs::Registry& registry,
                       const std::string& name) {
  std::ofstream out(path);
  if (!out) usage("cannot open --metrics-out file for writing: " + path);
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    registry.write_csv(out);
  } else {
    registry.write_json(out, name);
  }
}

int cmd_generate(const Flags& flags) {
  auto known = kWorkloadFlags;
  known.push_back("out");
  flags.reject_unknown(known);
  if (!flags.has("out")) usage("generate needs --out FILE");
  const auto trace = workload::ProWGen(workload_from(flags)).generate();
  workload::write_trace_file(flags.str("out", ""), trace);
  std::cout << "wrote " << trace.size() << " requests over " << trace.distinct_objects
            << " objects to " << flags.str("out", "") << "\n";
  return 0;
}

int cmd_trace_compile(const Flags& flags) {
  auto known = kWorkloadFlags;
  known.insert(known.end(), {"in", "squid", "out"});
  flags.reject_unknown(known);
  if (!flags.has("out")) usage("trace compile needs --out FILE");
  const auto out = flags.str("out", "");

  workload::WctraceHeader header;
  if (flags.has("in")) {
    const auto in = flags.str("in", "");
    if (flags.has("squid")) {
      // Squid logs need the URL -> dense id mapping, so they materialize.
      auto result = workload::read_squid_log_file(in);
      std::cerr << "squid log: kept " << result.trace.size() << ", filtered "
                << result.lines_skipped << ", malformed " << result.lines_malformed << "\n";
      workload::write_wctrace_file(out, result.trace);
      header = workload::read_wctrace_header(out);
    } else if (workload::is_wctrace_file(in)) {
      usage("trace compile input is already a wctrace binary: " + in);
    } else {
      // Text traces stream straight through: bounded memory end to end.
      header = workload::compile_text_to_wctrace(in, out);
    }
  } else {
    // Stream the generator into the writer; the trace never materializes.
    const auto cfg = workload_from(flags);
    workload::WctraceWriter writer(out);
    writer.set_distinct_objects(cfg.distinct_objects);
    workload::ProWGen(cfg).generate(
        [&writer](const Request& r) { writer.append(r); });
    header = writer.finalize();
  }
  std::cout << "wrote " << header.request_count << " requests over "
            << header.distinct_objects << " objects to " << out << " (wctrace/"
            << header.version << ", checksum 0x" << std::hex << header.checksum << std::dec
            << ")\n";
  return 0;
}

int cmd_trace_info(const Flags& flags) {
  flags.reject_unknown({"trace", "verify"});
  if (!flags.has("trace")) usage("trace info needs --trace FILE");
  const auto path = flags.str("trace", "");
  const auto header = workload::read_wctrace_header(path);
  std::cout << "format            wctrace/" << header.version << "\n"
            << "requests          " << header.request_count << "\n"
            << "distinct objects  " << header.distinct_objects << "\n"
            << "record size       " << header.record_size << " bytes\n"
            << "payload           " << header.request_count * header.record_size
            << " bytes (+" << workload::kWctraceHeaderSize << "-byte header)\n"
            << "checksum          0x" << std::hex << header.checksum << std::dec << "\n";
  if (flags.has("verify")) {
    const workload::MmapTraceSource source(path);
    if (!source.verify_checksum()) {
      std::cerr << "error: checksum MISMATCH (file corrupt?)\n";
      return 1;
    }
    std::cout << "checksum verified ok\n";
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) usage("trace needs a subcommand: compile or info");
  const std::string sub = argv[2];
  const Flags flags(argc, argv, 3);
  if (sub == "compile") return cmd_trace_compile(flags);
  if (sub == "info") return cmd_trace_info(flags);
  usage("unknown trace subcommand: " + sub);
}

int cmd_analyze(const Flags& flags) {
  flags.reject_unknown({"trace", "squid"});
  if (!flags.has("trace")) usage("analyze needs --trace FILE");
  const auto trace = trace_from(flags);
  const auto stats = workload::analyze(trace);
  const auto distances = workload::lru_stack_distances(trace);
  const auto locality = workload::summarize_stack_distances(distances);
  std::cout << "requests              " << stats.total_requests << "\n"
            << "distinct objects      " << stats.distinct_objects << "\n"
            << "one-timers            " << stats.one_timers << "\n"
            << "infinite cache size   " << stats.infinite_cache_size << "\n"
            << "top-decile share      " << stats.top_decile_share << "\n"
            << "estimated Zipf alpha  " << workload::estimate_zipf_alpha(stats) << "\n"
            << "stack distance median " << locality.median << " (p90 " << locality.p90
            << ")\n";
  return 0;
}

/// Expands the --churn-* / --audit-interval flags into the config's churn
/// schedule, loss model, and audit checkpoints.
void apply_churn_flags(const Flags& flags, sim::SimConfig& cfg,
                       std::uint64_t trace_length) {
  fault::ChurnSpec spec;
  spec.crashes = flags.integer<ClientNum>("churn-crashes", 0);
  spec.recover_after = flags.integer<std::uint64_t>("churn-recover-after", 0);
  spec.joins = flags.integer<ClientNum>("churn-joins", 0);
  spec.repair_every = flags.integer<std::uint64_t>("churn-repair-every", 0);
  spec.start = flags.integer<std::uint64_t>("churn-start", trace_length / 4);
  spec.seed = flags.integer<std::uint64_t>("churn-seed", spec.seed);
  if (spec.crashes > 0 || spec.joins > 0 || spec.repair_every > 0) {
    cfg.churn_events = fault::make_schedule(spec, trace_length, cfg.num_proxies,
                                            cfg.clients_per_cluster);
  }
  cfg.p2p_loss_rate = flags.num("churn-loss", 0.0);
  if (flags.has("audit-interval")) {
    cfg.checkpoint_interval = flags.integer<std::uint64_t>("audit-interval", 0);
    cfg.checkpoint_hook = fault::make_audit_hook();
  }
}

int cmd_simulate(const Flags& flags) {
  auto known = kWorkloadFlags;
  known.insert(known.end(), kClusterFlags.begin(), kClusterFlags.end());
  known.insert(known.end(), kChurnFlags.begin(), kChurnFlags.end());
  known.insert(known.end(), {"scheme", "trace", "squid", "metrics-out", "trace-out",
                             "trace-capacity", "snapshot-interval", "shards"});
  flags.reject_unknown(known);

  const auto scheme = sim::scheme_from_string(flags.str("scheme", "Hier-GD"));
  if (!scheme) usage("unknown scheme: " + flags.str("scheme", ""));

  const auto source = source_from(flags);
  auto cfg = cluster_from(flags, *source);
  cfg.scheme = *scheme;
  cfg.sim_shards = flags.integer<unsigned>("shards", 0);
  cfg.snapshot_interval = flags.integer<std::uint64_t>("snapshot-interval", 0);
  apply_churn_flags(flags, cfg, source->size());
  if (flags.has("trace-out")) {
    cfg.trace_capacity = flags.integer<std::size_t>("trace-capacity", 1'000'000);
  }
  const auto run = core::run_single(*source, cfg);
  std::cout << "scheme: " << sim::to_string(*scheme) << "\n"
            << run.metrics.summary() << "latency gain vs NC: " << run.gain_percent
            << "%\n";
  if (!cfg.churn_events.empty() || cfg.p2p_loss_rate > 0.0) {
    const auto& reg = *run.registry;
    std::cout << "churn: " << reg.counter_value("fault.crashes") << " crashes, "
              << reg.counter_value("fault.rejoins") << " rejoins, "
              << reg.counter_value("fault.joins") << " joins, "
              << reg.counter_value("fault.repairs") << " repairs; "
              << reg.counter_value("fault.objects_lost") << " objects lost, "
              << run.metrics.messages.p2p_messages_lost << " messages lost\n";
  }
  if (flags.has("metrics-out")) {
    const auto path = flags.str("metrics-out", "");
    write_registry_to(path, *run.registry,
                      "webcache_cli simulate " + std::string(sim::to_string(*scheme)));
    std::cout << "wrote metrics to " << path << "\n";
  }
  if (flags.has("trace-out")) {
    const auto path = flags.str("trace-out", "");
    std::ofstream out(path);
    if (!out) usage("cannot open --trace-out file for writing: " + path);
    run.registry->write_trace_csv(out);
    std::cout << "wrote event trace to " << path << "\n";
  }
  return 0;
}

int cmd_sweep(const Flags& flags) {
  auto known = kWorkloadFlags;
  known.insert(known.end(), kClusterFlags.begin(), kClusterFlags.end());
  known.insert(known.end(), {"schemes", "cache-pcts", "csv", "trace", "squid",
                             "metrics-out", "snapshot-interval"});
  flags.reject_unknown(known);

  const auto source = source_from(flags);

  core::SweepConfig sweep;
  sweep.base = cluster_from(flags, *source);
  sweep.client_cache_percent = flags.percent("client-cache-pct", 0.1);
  sweep.collect_observability = flags.has("metrics-out");
  sweep.base.snapshot_interval = flags.integer<std::uint64_t>("snapshot-interval", 0);
  sweep.threads = core::threads_from_env();

  if (flags.has("schemes")) {
    sweep.schemes.clear();
    std::istringstream list(flags.str("schemes", ""));
    std::string name;
    while (std::getline(list, name, ',')) {
      const auto s = sim::scheme_from_string(name);
      if (!s) usage("unknown scheme in --schemes: " + name);
      sweep.schemes.push_back(*s);
    }
    if (sweep.schemes.empty()) usage("--schemes list is empty");
  }
  if (flags.has("cache-pcts")) {
    sweep.cache_percents.clear();
    std::istringstream list(flags.str("cache-pcts", ""));
    std::string token;
    while (std::getline(list, token, ',')) {
      const auto pct = parse_number<double>(token);
      if (!pct || !(*pct > 0.0)) usage("bad --cache-pcts entry: " + token);
      sweep.cache_percents.push_back(*pct);
    }
  }

  const auto result = core::run_sweep(*source, sweep);
  core::print_gain_table(std::cout, result, "webcache_cli sweep");
  if (flags.has("csv")) {
    std::ofstream csv(flags.str("csv", ""));
    if (!csv) usage("cannot open --csv file for writing");
    core::write_gain_csv(csv, result);
    std::cout << "wrote CSV to " << flags.str("csv", "") << "\n";
  }
  if (flags.has("metrics-out")) {
    const auto path = flags.str("metrics-out", "");
    std::ofstream out(path);
    if (!out) usage("cannot open --metrics-out file for writing: " + path);
    core::write_metrics_json(out, result, "webcache_cli sweep");
    std::cout << "wrote metrics to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "trace") return cmd_trace(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const Flags flags(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(flags);
    if (command == "analyze") return cmd_analyze(flags);
    if (command == "simulate") return cmd_simulate(flags);
    if (command == "sweep") return cmd_sweep(flags);
    usage("unknown command: " + command);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
