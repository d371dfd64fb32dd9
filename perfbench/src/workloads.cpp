#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/experiment.hpp"
#include "directory/directory.hpp"
#include "fault/churn_schedule.hpp"
#include "layers.hpp"
#include "sim/simulator.hpp"
#include "workload/prowgen.hpp"
#include "workload/trace_stats.hpp"
#include "workload/wctrace.hpp"

namespace perfbench {

namespace core = webcache::core;
namespace sim = webcache::sim;
namespace wl = webcache::workload;
using webcache::ObjectNum;
using webcache::Request;
using webcache::Uint128;
using sim::Scheme;

namespace {

// --- workload shapes --------------------------------------------------------
// paper_sweep: the paper's Fig. 2(a) experiment, exactly as fig2a_cache_size
// runs it (ProWGen defaults of bench::paper_workload, 2 proxies).
constexpr std::uint64_t kSweepRequests = 1'000'000;
constexpr ObjectNum kSweepObjects = 10'000;
// stream_large: a compiled wctrace/1 over a universe whose per-proxy state
// does not fit in the last-level cache, replayed in small chunks, with
// client churn and P2P loss on the fault layer.
constexpr std::uint64_t kStreamRequests = 2'000'000;
constexpr ObjectNum kStreamObjects = 1'000'000;
constexpr unsigned kStreamProxies = 8;
constexpr double kStreamLossRate = 0.01;

constexpr double kCachePercent = 30.0;        // proxy cache, % of infinite size
constexpr double kClientCachePercent = 0.1;   // per-client cache (paper default)
constexpr std::size_t kReplayChunk = 65536;   // requests per replay window
constexpr std::size_t kKeySample = 1u << 20;  // isolated replays' key stream

wl::ProWGenConfig prowgen(std::uint64_t requests, ObjectNum objects, std::uint64_t seed) {
  wl::ProWGenConfig cfg;  // the paper's defaults: 50% one-timers, alpha 0.7
  cfg.total_requests = requests;
  cfg.distinct_objects = objects;
  cfg.one_timer_fraction = 0.5;
  cfg.zipf_alpha = 0.7;
  cfg.lru_stack_fraction = 0.2;
  cfg.clients = 100;
  cfg.seed = seed;
  return cfg;
}

/// Same rounding as core::run_sweep uses for its capacities.
std::size_t capacity(double percent, ObjectNum infinite) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(percent / 100.0 * static_cast<double>(infinite))));
}

sim::SimConfig cluster_config(Scheme scheme, unsigned proxies, ObjectNum infinite,
                              std::uint64_t seed) {
  sim::SimConfig c;
  c.scheme = scheme;
  c.num_proxies = proxies;
  c.proxy_capacity = capacity(kCachePercent, infinite);
  c.client_cache_capacity = capacity(kClientCachePercent, infinite);
  c.replay_chunk = kReplayChunk;
  c.seed = seed;
  return c;
}

/// Modest client churn past a quarter-trace warm-up (per cluster: 5 crashes
/// rejoining after 1/8 trace, 2 joins, a repair pass every 1/8 trace) and
/// P2P message loss, on the fault layer.
void add_churn_and_loss(sim::SimConfig& c, std::uint64_t n, double loss_rate) {
  webcache::fault::ChurnSpec churn;
  churn.start = n / 4;
  churn.crashes = 5;
  churn.recover_after = n / 8;
  churn.joins = 2;
  churn.repair_every = n / 8;
  churn.seed = c.seed;
  c.churn_events = webcache::fault::make_schedule(churn, n, c.num_proxies, c.clients_per_cluster);
  c.p2p_loss_rate = loss_rate;
}

/// The NC baseline of a scheme's run: NC has no client caches, hence no
/// churn and no P2P loss.
sim::SimConfig nc_baseline(sim::SimConfig c) {
  c.scheme = Scheme::kNC;
  c.churn_events.clear();
  c.p2p_loss_rate = 0.0;
  return c;
}

double gain_pct(const sim::Metrics& nc, const sim::Metrics& scheme) {
  return 100.0 * sim::latency_gain(nc, scheme);
}

std::string percent_label(double pct) {
  char text[16];
  std::snprintf(text, sizeof text, "%g", pct);
  return text;
}

/// Streams ProWGen straight into a wctrace/1 file (never held in memory),
/// then flushes it to disk, so kernel writeback of the file is paid here
/// and does not compete with the timed simulation that follows.
void compile_trace(const wl::ProWGenConfig& cfg, const std::string& path) {
  wl::WctraceWriter writer(path);
  writer.set_distinct_objects(cfg.distinct_objects);
  wl::ProWGen(cfg).generate([&writer](const Request& r) { writer.append(r); });
  (void)writer.finalize();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + path);
  }
  ::close(fd);
}

/// Resident bytes of the mapping that contains `addr`, from /proc/self/smaps.
std::uint64_t mapping_resident_bytes(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    char* end = nullptr;
    const unsigned long long lo = std::strtoull(line.c_str(), &end, 16);
    if (end != line.c_str() && *end == '-') {  // "start-end perms ..." header
      const unsigned long long hi = std::strtoull(end + 1, nullptr, 16);
      inside = lo <= a && a < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::strtoull(line.c_str() + 4, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Forwards to a source and records the longest window a reader asked for:
/// a replay that never asks for more than its chunk never materializes the
/// trace through the TraceSource interface.
class WindowAudit final : public wl::TraceSource {
 public:
  explicit WindowAudit(const wl::TraceSource& inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] ObjectNum distinct_objects() const override { return inner_.distinct_objects(); }
  [[nodiscard]] std::span<const Request> window(std::uint64_t pos,
                                                std::size_t max_len) const override {
    std::size_t seen = longest_.load(std::memory_order_relaxed);
    while (seen < max_len && !longest_.compare_exchange_weak(seen, max_len)) {
    }
    return inner_.window(pos, max_len);
  }
  void discard_consumed(std::uint64_t pos) const override { inner_.discard_consumed(pos); }
  [[nodiscard]] std::size_t longest_window() const { return longest_.load(); }

 private:
  const wl::TraceSource& inner_;
  mutable std::atomic<std::size_t> longest_{0};
};

// --- repetitions ------------------------------------------------------------

/// The first `warm_ups` repetitions are dropped (first-touch page faults and
/// cold allocator state would otherwise skew a run's first sample where the
/// repetitions reuse memory). Untraced: then measures `min_reps`
/// repetitions, and more while one more (at the median measured duration)
/// still ends within `seconds` of the start, warm-ups included, so a run's
/// length does not grow with a slow host. Traced: one untraced and one
/// traced measured repetition of the same seed, so their difference prices
/// the tracing. `run_rep(measured)` runs one repetition.
void repeat(const Options& o, Tracer& tracer, int warm_ups, int min_reps,
            const std::function<void(bool)>& run_rep) {
  const auto start = Clock::now();
  std::vector<double> measured_s;
  for (int rep = 0;; ++rep) {
    if (o.traced) {
      if (rep == warm_ups + 2) break;
      tracer.set_recording(rep == warm_ups + 1);
    } else if (rep >= warm_ups + min_reps &&
               seconds_since(start) + median(measured_s) > o.seconds) {
      break;
    }
    const bool measured = rep >= warm_ups;
    tracer.set_run(rep);
    const double rep_s = tracer.timed("perfbench.repetition", [&] { run_rep(measured); });
    if (measured) measured_s.push_back(rep_s);
  }
  tracer.set_recording(o.traced);  // the traced run's layer replays are recorded
}

struct Timings {
  std::vector<double> setup, wall, sim, rate;
  void add(double setup_s, double wall_s, double requests, double sim_s) {
    setup.push_back(setup_s);
    wall.push_back(wall_s);
    sim.push_back(sim_s);
    rate.push_back(requests / sim_s);
  }
};

void end_to_end(Report& out, const Timings& t, double gap_pp, const std::string& gap_note) {
  out.end_to_end = {
      {"setup_s", median(t.setup), "s", describe(summarize(t.setup), "s")},
      {"wall_s", median(t.wall), "s", describe(summarize(t.wall), "s")},
      {"sim_req_per_s", median(t.rate), "req/s",
       "timed simulation " + describe(summarize(t.sim), "s")},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "process peak RSS"},
      {"gain_gap_pp", gap_pp, "pp", gap_note},
  };
  std::string reps = "per-repetition setup_s / wall_s / sim_req_per_s:";
  for (std::size_t i = 0; i < t.rate.size(); ++i) {
    char text[96];
    std::snprintf(text, sizeof text, " %.4g/%.4g/%.4g", t.setup[i], t.wall[i], t.rate[i]);
    reps += text;
  }
  out.notes.push_back(reps);
}

/// |Hier-GD gain over NC, sharded - sequential|, with the two gains.
std::string gap_note(double seq_gain, double sharded_gain, unsigned shards) {
  char text[160];
  std::snprintf(text, sizeof text,
                "simulated: Hier-GD gain %.3f%% sequential vs %.3f%% at %u shards, epoch 8192",
                seq_gain, sharded_gain, shards);
  return text;
}

// --- per-layer table ----------------------------------------------------------

struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayerMetrics[] = {
    {"workload.generate_s", "s"},        {"workload.compile_req_per_s", "req/s"},
    {"workload.decode_req_per_s", "req/s"}, {"workload.analyze_s", "s"},
    {"directory.id_table_s", "s"},       {"directory.lookups", "count"},
    {"directory.positive_ratio", "ratio"}, {"directory.ns_per_lookup", "ns"},
    {"sim.ctor_s", "s"},                 {"sim.run_s", "s"},
    {"sim.NC.ns_per_req", "ns"},         {"sim.SC.ns_per_req", "ns"},
    {"sim.FC.ns_per_req", "ns"},         {"sim.NC-EC.ns_per_req", "ns"},
    {"sim.SC-EC.ns_per_req", "ns"},      {"sim.FC-EC.ns_per_req", "ns"},
    {"sim.Hier-GD.ns_per_req", "ns"},    {"sim.shard_speedup", "x"},
    {"sim.proxy_hit_ratio", "ratio"},    {"sim.p2p_hit_ratio", "ratio"},
    {"sim.server_fetch_ratio", "ratio"}, {"core.parallel_eff", "ratio"},
    {"core.tail_s", "s"},                {"core.job_p50_s", "s"},
    {"core.job_p85_s", "s"},             {"cache.hits", "count"},
    {"cache.insertions", "count"},       {"cache.evictions", "count"},
    {"cache.write_ratio", "ratio"},      {"cache.lfu_da.ns_per_op", "ns"},
    {"cache.cost_benefit.ns_per_op", "ns"}, {"cache.greedy_dual.ns_per_op", "ns"},
    {"pastry.routes", "count"},          {"pastry.hops_per_route", "hops"},
    {"pastry.fallback_hop_ratio", "ratio"}, {"pastry.ns_per_route", "ns"},
    {"p2p.stores", "count"},             {"p2p.fetches", "count"},
    {"p2p.diversion_ratio", "ratio"},    {"p2p.ns_per_op", "ns"},
    {"fault.crashes", "count"},          {"fault.objects_lost", "count"},
    {"fault.repairs", "count"},          {"fault.retry_ratio", "ratio"},
    {"obs.export_s", "s"},               {"obs.trace_overhead_pct", "%"},
    {"share.cache", "ratio"},            {"share.directory", "ratio"},
    {"share.pastry", "ratio"},           {"share.p2p", "ratio"},
    {"share.unattributed", "ratio"},
};

/// Every per-layer metric, in a fixed order. A metric a workload does not
/// exercise stays 0 and is marked n/a in the printed table.
class Layers {
 public:
  Layers() {
    for (const auto& d : kLayerMetrics) metrics_.push_back({d.name, 0.0, d.unit, "n/a"});
  }
  void set(std::string_view name, double value, std::string note = "") {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.note = std::move(note);
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + std::string(name));
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void set_counts(Layers& L, const LayerCounts& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  L.set("cache.hits", d(c.cache_hits), "registry, all policy caches");
  L.set("cache.insertions", d(c.cache_insertions), "registry");
  L.set("cache.evictions", d(c.cache_evictions), "registry");
  L.set("cache.write_ratio",
        ratio(d(c.cache_insertions + c.cache_evictions), d(c.cache_hits + c.cache_insertions)),
        "(insertions+evictions)/(hits+insertions)");
  L.set("directory.lookups", d(c.dir_lookups), "registry");
  L.set("directory.positive_ratio", ratio(d(c.dir_positives), d(c.dir_lookups)),
        "positives/lookups");
  L.set("pastry.routes", d(c.routes), "registry");
  L.set("pastry.hops_per_route", ratio(d(c.route_hops), d(c.routes)), "registry");
  L.set("pastry.fallback_hop_ratio", ratio(d(c.fallback_hops), d(c.route_hops)),
        "fallback hops/hops");
  L.set("p2p.stores", d(c.p2p_stores), "registry (destages)");
  L.set("p2p.fetches", d(c.p2p_fetches), "registry");
  L.set("p2p.diversion_ratio", ratio(d(c.p2p_diversions), d(c.p2p_stores)),
        "diversions/stores");
  L.set("fault.crashes", d(c.crashes), "registry");
  L.set("fault.objects_lost", d(c.objects_lost), "registry");
  L.set("fault.repairs", d(c.repairs), "registry (scheduled passes)");
  L.set("fault.retry_ratio", ratio(d(c.p2p_retries), d(c.p2p_stores + c.p2p_fetches)),
        "retries/P2P transfers");
}

void set_outcomes(Layers& L, const sim::Metrics& m, const std::string& which) {
  const double n = static_cast<double>(m.requests);
  L.set("sim.proxy_hit_ratio",
        ratio(static_cast<double>(m.hits_local_proxy + m.hits_remote_proxy), n),
        "simulated, " + which);
  L.set("sim.p2p_hit_ratio", ratio(static_cast<double>(m.hits_local_p2p + m.hits_remote_p2p), n),
        "simulated, " + which);
  L.set("sim.server_fetch_ratio", ratio(static_cast<double>(m.server_fetches), n),
        "simulated, " + which);
}

/// Isolated prices of the Hier-GD layers on a workload's key stream.
struct HierPrices {
  double greedy_dual_ns = 0.0;
  double dir_ns = 0.0;
  double route_ns = 0.0;
  P2PPrice p2p;
  /// P2P self cost: its operation minus the routes it makes.
  [[nodiscard]] double p2p_self_ns() const {
    return p2p.ns_per_op - p2p.routes_per_op * route_ns;
  }
};

HierPrices price_hier(const std::vector<Request>& keys, ObjectNum universe, unsigned proxies,
                      const sim::SimConfig& cfg,
                      const std::shared_ptr<const std::vector<Uint128>>& ids, Tracer& tr) {
  HierPrices p;
  p.greedy_dual_ns = price_cache(PolicyPrice::kGreedyDual, keys, universe, proxies,
                                 cfg.proxy_capacity, nullptr, tr);
  p.dir_ns = price_directory(keys, cfg.clients_per_cluster * cfg.client_cache_capacity, tr);
  p.route_ns = price_route(keys, *ids, cfg.clients_per_cluster, tr);
  p.p2p = price_p2p(keys, ids, cfg.clients_per_cluster, cfg.client_cache_capacity, tr);
  return p;
}

void set_hier_prices(Layers& L, const HierPrices& p) {
  L.set("cache.greedy_dual.ns_per_op", p.greedy_dual_ns, "isolated replay");
  L.set("directory.ns_per_lookup", p.dir_ns, "isolated replay, per directory op");
  L.set("pastry.ns_per_route", p.route_ns, "isolated replay");
  L.set("p2p.ns_per_op", p.p2p.ns_per_op, "isolated replay, routing included");
}

/// Priced seconds per layer (isolated ns/op x the run's op counts).
struct Priced {
  double cache = 0.0, directory = 0.0, pastry = 0.0, p2p = 0.0;
  void add_hier(const LayerCounts& c, const HierPrices& p) {
    directory += 1e-9 * p.dir_ns * static_cast<double>(c.dir_lookups + c.dir_updates);
    pastry += 1e-9 * p.route_ns * static_cast<double>(c.routes);
    p2p += 1e-9 * p.p2p_self_ns() * static_cast<double>(c.p2p_stores + c.p2p_fetches);
  }
};

void set_shares(Layers& L, const Priced& p, double run_s, const std::string& of) {
  const std::string note = "isolated estimate, share of " + of;
  L.set("share.cache", p.cache / run_s, note + " (proxy tier)");
  L.set("share.directory", p.directory / run_s, note);
  L.set("share.pastry", p.pastry / run_s, note);
  L.set("share.p2p", p.p2p / run_s, note + " (self: routing excluded)");
  L.set("share.unattributed", 1.0 - (p.cache + p.directory + p.pastry + p.p2p) / run_s, note);
}

/// The traced run measures exactly two repetitions: untraced, then traced.
void set_overhead(Layers& L, const Timings& t) {
  const double untraced_wall = t.wall.at(0);
  const double traced_wall = t.wall.at(1);
  L.set("obs.trace_overhead_pct", 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "traced vs untraced wall_s, same seed, one repetition each");
}

// ============================================================================
// paper_sweep
// ============================================================================

struct SweepRep {
  double generate_s = 0.0, analyze_s = 0.0, sweep_s = 0.0, export_s = 0.0;
  std::shared_ptr<const wl::TraceSource> source;
  core::SweepResult result;
  [[nodiscard]] double setup_s() const { return generate_s + analyze_s; }
  [[nodiscard]] double wall_s() const { return setup_s() + sweep_s + export_s; }
};

SweepRep sweep_rep(const Options& o, Tracer& tr) {
  SweepRep r;
  wl::Trace trace;
  r.generate_s = tr.timed("workload.ProWGen::generate", [&] {
    trace = wl::ProWGen(prowgen(kSweepRequests, kSweepObjects, o.seed)).generate();
  });
  r.source = wl::make_source(std::move(trace));
  core::SweepConfig cfg;  // the paper's 7 schemes x 10 sizes, 2 proxies
  cfg.threads = o.threads;
  cfg.collect_observability = true;
  cfg.base.seed = o.seed;
  r.analyze_s = tr.timed("core.cluster_infinite_cache_size", [&] {
    (void)core::cluster_infinite_cache_size(*r.source, cfg.base.num_proxies);
  });
  r.sweep_s = tr.timed("core.run_sweep", [&] { r.result = core::run_sweep(*r.source, cfg); });
  r.export_s = tr.timed("obs.write_metrics_json", [&] {
    std::ofstream out(o.work_dir + "/paper_sweep.metrics.json");
    core::write_metrics_json(out, r.result, "paper_sweep");
  });
  return r;
}

void check_sweep(const SweepRep& r, Checker& ch) {
  const auto& res = r.result;
  const std::uint64_t n = r.source->size();
  for (std::size_t i = 0; i < res.cache_percents.size(); ++i) {
    const std::string prefix = "sweep/" + percent_label(res.cache_percents[i]) + "/";
    ch.simulation(prefix + "NC", res.baseline[i], *res.baseline_registries[i], n, true);
    for (std::size_t k = 0; k < res.schemes.size(); ++k) {
      if (res.schemes[k] == Scheme::kNC) continue;  // aliases the baseline
      ch.simulation(prefix + std::string(sim::to_string(res.schemes[k])), res.metrics[i][k],
                    *res.registries[i][k], n, true);
    }
  }
}

std::size_t index_of(const std::vector<double>& values, double v) {
  const auto it = std::find(values.begin(), values.end(), v);
  if (it == values.end()) throw std::logic_error("sweep lacks the 30% cache size");
  return static_cast<std::size_t>(it - values.begin());
}
std::size_t index_of(const std::vector<Scheme>& values, Scheme v) {
  return static_cast<std::size_t>(std::find(values.begin(), values.end(), v) - values.begin());
}

/// The sweep job's configuration, as core::run_sweep builds it.
sim::SimConfig sweep_job_config(const SweepRep& r, const Options& o, std::size_t size_index,
                                Scheme scheme) {
  sim::SimConfig c;
  c.scheme = scheme;
  c.seed = o.seed;
  c.proxy_capacity = capacity(r.result.cache_percents[size_index], r.result.infinite_cache_size);
  c.client_cache_capacity = r.result.client_cache_capacity;
  return c;
}

Report paper_sweep(const Options& o, Checker& ch, Tracer& tr) {
  Report out;
  Timings t;
  std::unique_ptr<SweepRep> last;
  repeat(o, tr, 1, 3, [&](bool measured) {
    last.reset();
    last = std::make_unique<SweepRep>(sweep_rep(o, tr));
    check_sweep(*last, ch);
    const double jobs = static_cast<double>(last->result.cache_percents.size() *
                                            last->result.schemes.size());
    if (measured) {
      t.add(last->setup_s(), last->wall_s(), jobs * static_cast<double>(kSweepRequests),
            last->sweep_s);
    }
  });
  const SweepRep& r = *last;
  const std::uint64_t n = r.source->size();

  // Fidelity: the 30% Hier-GD job again, on the sharded engine.
  const std::size_t i30 = index_of(r.result.cache_percents, kCachePercent);
  const std::size_t khg = index_of(r.result.schemes, Scheme::kHierGD);
  sim::SimConfig sharded = sweep_job_config(r, o, i30, Scheme::kHierGD);
  sharded.sim_shards = o.threads;
  sim::Metrics sharded_m;
  double sharded_run_s = 0.0;
  {
    sim::Simulator s(sharded, *r.source);
    sharded_run_s = tr.timed("sim.Simulator::run[sharded]", [&] { sharded_m = s.run(); });
    ch.simulation("gap/Hier-GD/sharded", sharded_m, s.registry(), n, false,
                  {{"Simulator::sharding_supported", sim::Simulator::sharding_supported(sharded)}});
  }
  const double seq_gain = r.result.gains[i30][khg];
  const double sharded_gain = gain_pct(r.result.baseline[i30], sharded_m);
  end_to_end(out, t, std::fabs(sharded_gain - seq_gain),
             gap_note(seq_gain, sharded_gain, std::min(o.threads, 2u)));
  out.notes.push_back("sim_req_per_s counts 70 jobs x " + std::to_string(kSweepRequests) +
                      " requests per sweep; sweep on " + std::to_string(o.threads) +
                      " workers");
  if (!o.traced) return out;

  // ---- traced run: per-layer metrics -------------------------------------
  Layers L;
  L.set("workload.generate_s", r.generate_s, "in-memory ProWGen");
  L.set("workload.analyze_s", r.analyze_s, "cluster_infinite_cache_size");
  L.set("obs.export_s", r.export_s, "write_metrics_json");
  set_overhead(L, t);
  L.set("workload.decode_req_per_s", decode_req_per_s(*r.source, kReplayChunk, tr),
        "in-memory window() pass");
  std::shared_ptr<const std::vector<Uint128>> ids;
  L.set("directory.id_table_s",
        tr.timed("directory.build_object_id_table",
                 [&] { ids = webcache::directory::build_object_id_table(kSweepObjects); }),
        "isolated");
  const auto stats = std::make_shared<const wl::TraceStats>(wl::analyze(*r.source));

  // Every sweep job again, alone, on one thread: job busy times.
  std::vector<double> job_s;
  std::map<Scheme, double> scheme_run_s;
  double ctor_total = 0.0, run_total = 0.0, hier30_run_s = 0.0;
  sim::Metrics hier30;
  const auto& res = r.result;
  std::vector<Scheme> job_schemes = {Scheme::kNC};
  for (const Scheme s : res.schemes) {
    if (s != Scheme::kNC) job_schemes.push_back(s);
  }
  for (std::size_t i = 0; i < res.cache_percents.size(); ++i) {
    for (const Scheme s : job_schemes) {
      sim::SimConfig c = sweep_job_config(r, o, i, s);
      c.trace_stats = stats;
      c.object_ids = ids;
      const std::string label = "sweep/" + percent_label(res.cache_percents[i]) + "/" +
                                std::string(sim::to_string(s));
      std::unique_ptr<sim::Simulator> job;
      sim::Metrics m;
      const double ctor_s = tr.timed("sim.Simulator::Simulator",
                                     [&] { job = std::make_unique<sim::Simulator>(c, *r.source); });
      const double run_s = tr.timed("sim.Simulator::run", [&] { m = job->run(); });
      ch.simulation(label, m, job->registry(), n, true);
      job_s.push_back(ctor_s + run_s);
      scheme_run_s[s] += run_s;
      ctor_total += ctor_s;
      run_total += run_s;
      if (i == i30 && s == Scheme::kHierGD) {
        hier30_run_s = run_s;
        hier30 = m;
      }
    }
  }
  const double sizes = static_cast<double>(res.cache_percents.size());
  for (const auto& [s, secs] : scheme_run_s) {
    L.set("sim." + std::string(sim::to_string(s)) + ".ns_per_req",
          1e9 * secs / (sizes * static_cast<double>(n)), "each job re-run alone");
  }
  L.set("sim.ctor_s", ctor_total, "sum over the 70 jobs re-run alone");
  L.set("sim.run_s", run_total, "sum over the 70 jobs re-run alone");
  L.set("sim.shard_speedup", hier30_run_s / sharded_run_s, "Hier-GD 30%, sequential/sharded");
  set_outcomes(L, hier30, "Hier-GD at 30%");

  const double workers = std::min<double>(o.threads, static_cast<double>(job_s.size()));
  const double busy = std::accumulate(job_s.begin(), job_s.end(), 0.0);
  const double sweep_wall = r.sweep_s;
  const Distribution jobs = summarize(job_s);
  L.set("core.parallel_eff", busy / (workers * sweep_wall), "sum job busy/(workers x sweep wall)");
  L.set("core.tail_s", sweep_wall - busy / workers, "sweep wall - busy/workers");
  L.set("core.job_p50_s", jobs.median, describe(jobs, "s"));
  L.set("core.job_p85_s", quantile(job_s, 0.85), describe(jobs, "s"));

  // Registry counts of the traced sweep, and priced shares over all jobs.
  const auto keys = sample_requests(*r.source, kKeySample);
  const sim::SimConfig c30 = sweep_job_config(r, o, i30, Scheme::kHierGD);
  const unsigned proxies = c30.num_proxies;
  const double lfu_ns = price_cache(PolicyPrice::kLfuDa, keys, kSweepObjects, proxies,
                                    c30.proxy_capacity, nullptr, tr);
  const double cb_ns = price_cache(PolicyPrice::kCostBenefit, keys, kSweepObjects, proxies,
                                   c30.proxy_capacity, stats.get(), tr);
  const HierPrices hp = price_hier(keys, kSweepObjects, proxies, c30, ids, tr);
  L.set("cache.lfu_da.ns_per_op", lfu_ns, "isolated replay");
  L.set("cache.cost_benefit.ns_per_op", cb_ns, "isolated replay");
  set_hier_prices(L, hp);
  LayerCounts all;
  Priced priced;
  for (std::size_t i = 0; i < res.cache_percents.size(); ++i) {
    for (std::size_t k = 0; k <= res.schemes.size(); ++k) {
      const bool baseline = k == res.schemes.size();
      if (!baseline && res.schemes[k] == Scheme::kNC) continue;
      const Scheme s = baseline ? Scheme::kNC : res.schemes[k];
      const auto& reg = baseline ? *res.baseline_registries[i] : *res.registries[i][k];
      LayerCounts c;
      c.add(reg);
      all.add(reg);
      const double policy_ns = s == Scheme::kHierGD                         ? hp.greedy_dual_ns
                               : s == Scheme::kFC || s == Scheme::kFC_EC ? cb_ns
                                                                         : lfu_ns;
      priced.cache += 1e-9 * policy_ns * static_cast<double>(c.proxy_cache_ops);
      if (s == Scheme::kHierGD) priced.add_hier(c, hp);
    }
  }
  set_counts(L, all);
  set_shares(L, priced, run_total, "the 70 jobs' summed run time");
  out.per_layer = L.take();
  return out;
}

// ============================================================================
// compiled-trace workloads: shared setup
// ============================================================================

/// The setup the compiled-trace workloads share: ProWGen streamed into a
/// wctrace/1 file, the file mapped, analyzed, and its ring-id table built.
struct CompiledTrace {
  double compile_s = 0.0, open_s = 0.0, analyze_s = 0.0, ids_s = 0.0;
  std::unique_ptr<wl::MmapTraceSource> source;
  std::shared_ptr<const std::vector<Uint128>> ids;
  ObjectNum infinite = 0;
  [[nodiscard]] double setup_s() const { return compile_s + open_s + analyze_s + ids_s; }
};

/// The caller must have released any earlier mapping of `path`: the file
/// is rewritten here, and a mapping must not outlive the file contents.
void compile_and_open(CompiledTrace& t, const wl::ProWGenConfig& cfg, unsigned proxies,
                      const std::string& path, Tracer& tr) {
  t.compile_s = tr.timed("workload.compile_wctrace", [&] { compile_trace(cfg, path); });
  t.open_s = tr.timed("workload.MmapTraceSource",
                      [&] { t.source = std::make_unique<wl::MmapTraceSource>(path); });
  t.analyze_s = tr.timed("core.cluster_infinite_cache_size", [&] {
    t.infinite = core::cluster_infinite_cache_size(*t.source, proxies);
  });
  t.ids_s = tr.timed("directory.build_object_id_table", [&] {
    t.ids = webcache::directory::build_object_id_table(t.source->distinct_objects());
  });
}

// ============================================================================
// stream_large
// ============================================================================

struct StreamRep {
  CompiledTrace trace;
  double ctor_s = 0.0, run_s = 0.0, export_s = 0.0;
  std::shared_ptr<webcache::obs::Registry> registry;
  sim::SimConfig config;
  sim::Metrics metrics;
  std::uint64_t max_mapped_bytes = 0;  ///< resident part of the trace mapping
  std::size_t longest_window = 0;       ///< longest window the replay requested
  [[nodiscard]] double setup_s() const { return trace.setup_s() + ctor_s; }
  [[nodiscard]] double wall_s() const { return setup_s() + run_s + export_s; }
};

void stream_rep(const Options& o, Tracer& tr, std::unique_ptr<StreamRep>& rep) {
  rep.reset();  // unmaps the previous repetition's trace before it is rewritten
  rep = std::make_unique<StreamRep>();
  StreamRep& r = *rep;
  compile_and_open(r.trace, prowgen(kStreamRequests, kStreamObjects, o.seed), kStreamProxies,
                   o.work_dir + "/stream_large.wct", tr);
  const wl::MmapTraceSource& source = *r.trace.source;
  r.config = cluster_config(Scheme::kHierGD, kStreamProxies, r.trace.infinite, o.seed);
  r.config.object_ids = r.trace.ids;
  add_churn_and_loss(r.config, source.size(), kStreamLossRate);
  r.registry = std::make_shared<webcache::obs::Registry>();
  sim::SimConfig c = r.config;
  c.registry = r.registry;
  // Samples how much of the trace mapping is resident while replaying.
  const void* base = source.window(0, 1).data();
  c.checkpoint_interval = source.size() / 8;
  c.checkpoint_hook = [&r, base](const sim::Simulator&, std::uint64_t) {
    r.max_mapped_bytes = std::max(r.max_mapped_bytes, mapping_resident_bytes(base));
  };
  const WindowAudit audited(source);
  std::unique_ptr<sim::Simulator> s;
  r.ctor_s = tr.timed("sim.Simulator::Simulator",
                      [&] { s = std::make_unique<sim::Simulator>(c, audited); });
  r.run_s = tr.timed("sim.Simulator::run", [&] { r.metrics = s->run(); });
  r.longest_window = audited.longest_window();
  r.export_s = tr.timed("obs.Registry::write_json", [&] {
    std::ofstream out(o.work_dir + "/stream_large.metrics.json");
    r.registry->write_json(out, "stream_large");
  });
}

Report stream_large(const Options& o, Checker& ch, Tracer& tr) {
  Report out;
  Timings t;
  std::unique_ptr<StreamRep> last;
  // No warm-up: every repetition maps a freshly written trace and allocates
  // ~450 MiB of new simulator state, so each one pays the same first-touch
  // costs; a dropped first repetition measured no differently.
  repeat(o, tr, 0, 3, [&](bool measured) {
    stream_rep(o, tr, last);
    const StreamRep& r = *last;
    const std::uint64_t n = r.trace.source->size();
    ch.simulation(
        "stream/Hier-GD", r.metrics, *r.registry, n, true,
        {{"replay chunk << trace length", kReplayChunk * 16 <= n},
         {"replay windows <= replay chunk (trace never materialized)",
          r.longest_window > 0 && r.longest_window <= kReplayChunk}});
    if (measured) t.add(r.setup_s(), r.wall_s(), static_cast<double>(n), r.run_s);
  });
  const StreamRep& r = *last;
  const std::uint64_t n = r.trace.source->size();
  char mapped[200];
  std::snprintf(mapped, sizeof mapped,
                "trace file %.1f MiB; resident part of its mapping peaked at %.2f MiB "
                "during the replay (replay chunk %zu requests; the analysis pass before "
                "it releases no pages)",
                static_cast<double>(n * sizeof(Request)) / 1048576.0,
                static_cast<double>(r.max_mapped_bytes) / 1048576.0, kReplayChunk);
  out.notes.push_back(mapped);

  // Fidelity (untimed): NC baseline and the sharded Hier-GD run.
  const sim::SimConfig nc = nc_baseline(r.config);
  sim::Metrics nc_m;
  double nc_run_s = 0.0;
  {
    sim::Simulator s(nc, *r.trace.source);
    nc_run_s = tr.timed("sim.Simulator::run[NC]", [&] { nc_m = s.run(); });
    ch.simulation("stream/NC", nc_m, s.registry(), n, true);
  }
  sim::SimConfig sharded = r.config;
  sharded.sim_shards = o.threads;
  sim::Metrics sharded_m;
  double sharded_run_s = 0.0;
  {
    sim::Simulator s(sharded, *r.trace.source);
    sharded_run_s = tr.timed("sim.Simulator::run[sharded]", [&] { sharded_m = s.run(); });
    ch.simulation("stream/Hier-GD/sharded", sharded_m, s.registry(), n, false,
                  {{"Simulator::sharding_supported", sim::Simulator::sharding_supported(sharded)}});
  }
  const double seq_gain = gain_pct(nc_m, r.metrics);
  const double sharded_gain = gain_pct(nc_m, sharded_m);
  end_to_end(out, t, std::fabs(sharded_gain - seq_gain),
             gap_note(seq_gain, sharded_gain, std::min(o.threads, kStreamProxies)));
  if (!o.traced) return out;

  Layers L;
  L.set("workload.compile_req_per_s", static_cast<double>(n) / r.trace.compile_s,
        "ProWGen -> WctraceWriter");
  L.set("workload.analyze_s", r.trace.analyze_s, "cluster_infinite_cache_size over the mapping");
  L.set("directory.id_table_s", r.trace.ids_s, "build_object_id_table");
  L.set("sim.ctor_s", r.ctor_s, "Hier-GD, sequential, churn + loss");
  L.set("sim.run_s", r.run_s, "Hier-GD, sequential, churn + loss");
  L.set("sim.Hier-GD.ns_per_req", 1e9 * r.run_s / static_cast<double>(n), "sequential run");
  L.set("sim.NC.ns_per_req", 1e9 * nc_run_s / static_cast<double>(n), "NC baseline run");
  L.set("sim.shard_speedup", r.run_s / sharded_run_s, "sequential/sharded run()");
  L.set("obs.export_s", r.export_s, "Registry::write_json");
  set_overhead(L, t);
  set_outcomes(L, r.metrics, "sequential Hier-GD");
  L.set("workload.decode_req_per_s", decode_req_per_s(*r.trace.source, kReplayChunk, tr),
        "mmap window() pass at the replay chunk");
  LayerCounts c;
  c.add(*r.registry);
  set_counts(L, c);
  const auto keys = sample_requests(*r.trace.source, kKeySample);
  const HierPrices hp = price_hier(keys, kStreamObjects, kStreamProxies, r.config, r.trace.ids, tr);
  set_hier_prices(L, hp);
  Priced priced;
  priced.cache = 1e-9 * hp.greedy_dual_ns * static_cast<double>(c.proxy_cache_ops);
  priced.add_hier(c, hp);
  set_shares(L, priced, r.run_s, "the sequential run");
  out.per_layer = L.take();
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_sweep", "stream_large"};
  return names;
}

Report run_workload(const Options& options, Checker& checker, Tracer& tracer) {
  if (options.workload == "paper_sweep") return paper_sweep(options, checker, tracer);
  if (options.workload == "stream_large") return stream_large(options, checker, tracer);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
