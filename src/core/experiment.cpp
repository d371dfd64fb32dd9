#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "directory/directory.hpp"
#include "workload/trace_stats.hpp"

namespace webcache::core {

std::vector<double> default_cache_percents() {
  return {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
}

unsigned threads_from_env() {
  const char* env = std::getenv("WEBCACHE_THREADS");
  if (env == nullptr) return 0;
  const char* end = env + std::strlen(env);
  unsigned threads = 0;
  const auto [ptr, ec] = std::from_chars(env, end, threads);
  if (ec == std::errc{} && ptr == end) return threads;
  std::cerr << "ignoring invalid WEBCACHE_THREADS=" << env << "\n";
  return 0;
}

ObjectNum cluster_infinite_cache_size(const workload::TraceSource& source,
                                      unsigned num_proxies) {
  if (num_proxies == 0) {
    throw std::invalid_argument("cluster_infinite_cache_size: num_proxies must be >= 1");
  }
  // Frequency of each object within proxy 0's round-robin substream; the
  // streams are statistically identical, so one cluster stands for all. One
  // chunked pass, O(distinct objects) working memory.
  std::vector<std::uint64_t> freq(source.distinct_objects(), 0);
  const std::uint64_t total = source.size();
  const std::size_t chunk = workload::default_replay_chunk();
  for (std::uint64_t base = 0; base < total;) {
    const auto win = source.window(base, chunk);
    if (win.empty()) break;
    // First position in this window landing on proxy 0's substream.
    std::uint64_t i = (num_proxies - base % num_proxies) % num_proxies;
    for (; i < win.size(); i += num_proxies) {
      const ObjectNum object = win[i].object;
      if (object >= freq.size()) {
        throw std::invalid_argument(
            "cluster_infinite_cache_size: request references object outside the universe");
      }
      ++freq[object];
    }
    base += win.size();
  }
  ObjectNum multi = 0;
  for (const auto f : freq) {
    if (f > 1) ++multi;
  }
  return multi;
}

ObjectNum cluster_infinite_cache_size(const workload::Trace& trace, unsigned num_proxies) {
  return cluster_infinite_cache_size(workload::MaterializedTraceSource(trace), num_proxies);
}

std::size_t capacity_from_percent(double percent, ObjectNum infinite_size) {
  const double objects = std::round(percent / 100.0 * static_cast<double>(infinite_size));
  // 2^64 for a 64-bit size_t: every smaller whole non-negative double fits.
  const double limit = std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(objects >= 0.0 && objects < limit)) {
    std::ostringstream what;
    what << percent << "% of " << infinite_size << " objects is not a cache capacity";
    throw std::invalid_argument(what.str());
  }
  return std::max<std::size_t>(1, static_cast<std::size_t>(objects));
}

SweepResult run_sweep(const workload::TraceSource& source, const SweepConfig& config) {
  if (config.cache_percents.empty()) {
    throw std::invalid_argument("run_sweep: no cache sizes given");
  }
  if (source.empty()) {
    throw std::invalid_argument("run_sweep: empty trace");
  }
  if (config.base.sim_shards != 0) {
    throw std::invalid_argument(
        "run_sweep: base.sim_shards must be 0; a sweep parallelises across its jobs");
  }

  SweepResult result;
  result.cache_percents = config.cache_percents;
  result.schemes = config.schemes;
  result.infinite_cache_size = cluster_infinite_cache_size(source, config.base.num_proxies);
  result.client_cache_capacity =
      capacity_from_percent(config.client_cache_percent, result.infinite_cache_size);
  // Sized up front, so an unusable percentage throws here rather than in a
  // worker thread.
  std::vector<std::size_t> proxy_capacities;
  for (const double percent : config.cache_percents) {
    proxy_capacities.push_back(capacity_from_percent(percent, result.infinite_cache_size));
  }

  const std::size_t num_sizes = config.cache_percents.size();
  const std::size_t num_schemes = config.schemes.size();
  // The baseline runs NC at its paper policy; an NC column under a policy
  // override is a run of its own.
  const auto reuses_baseline = [&](std::size_t k) {
    return config.schemes[k] == sim::Scheme::kNC &&
           config.base.proxy_policy == cache::PolicyKind::kDefault;
  };
  result.metrics.assign(num_sizes, std::vector<sim::Metrics>(num_schemes));
  result.baseline.assign(num_sizes, sim::Metrics{});
  result.gains.assign(num_sizes, std::vector<double>(num_schemes, 0.0));
  if (config.collect_observability) {
    // Pre-allocate one registry per run slot before the workers start; each
    // registry is then populated by exactly one job and read only after the
    // join, keeping both the threading race-free and the export
    // byte-deterministic.
    result.registries.assign(num_sizes, std::vector<std::shared_ptr<obs::Registry>>(num_schemes));
    result.baseline_registries.assign(num_sizes, nullptr);
    for (std::size_t i = 0; i < num_sizes; ++i) {
      result.baseline_registries[i] = std::make_shared<obs::Registry>();
      for (std::size_t k = 0; k < num_schemes; ++k) {
        result.registries[i][k] = reuses_baseline(k) ? result.baseline_registries[i]
                                                     : std::make_shared<obs::Registry>();
      }
    }
  }

  // One trace analysis shared by every FC/FC-EC job. Without this, each of
  // those simulators re-scans the full trace in its constructor — ~2 extra
  // O(trace) passes per swept cache size.
  std::shared_ptr<const workload::TraceStats> shared_stats;
  if (std::any_of(config.schemes.begin(), config.schemes.end(), [](sim::Scheme s) {
        return s == sim::Scheme::kFC || s == sim::Scheme::kFC_EC;
      })) {
    shared_stats = std::make_shared<const workload::TraceStats>(workload::analyze(source));
  }

  // Likewise, one ring-placement table (objectId = SHA-1 of the object URL)
  // shared by every Hier-GD/Squirrel job: the table is a pure function of the
  // object universe, and hashing it is O(objects) per simulator otherwise.
  std::shared_ptr<const std::vector<Uint128>> shared_object_ids;
  if (std::any_of(config.schemes.begin(), config.schemes.end(), [](sim::Scheme s) {
        return s == sim::Scheme::kHierGD || s == sim::Scheme::kSquirrel;
      })) {
    shared_object_ids = directory::build_object_id_table(source.distinct_objects());
  }

  // Flatten all independent runs into one job list. Job index j encodes
  // (size i, scheme k) with k == num_schemes meaning the NC baseline.
  struct Job {
    std::size_t size_index;
    std::size_t scheme_index;  // == num_schemes -> baseline NC
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < num_sizes; ++i) {
    jobs.push_back({i, num_schemes});
    for (std::size_t k = 0; k < num_schemes; ++k) {
      if (reuses_baseline(k)) continue;
      jobs.push_back({i, k});
    }
  }

  const auto make_config = [&](std::size_t size_index, std::size_t scheme_index) {
    sim::SimConfig c = config.base;
    if (scheme_index == num_schemes) {
      c.scheme = sim::Scheme::kNC;
      c.proxy_policy = cache::PolicyKind::kDefault;
    } else {
      c.scheme = config.schemes[scheme_index];
    }
    c.trace_stats = shared_stats;      // only FC/FC-EC read it
    c.object_ids = shared_object_ids;  // only Hier-GD/Squirrel read it
    c.proxy_capacity = proxy_capacities[size_index];
    c.client_cache_capacity = result.client_cache_capacity;
    // A shared registry across concurrent jobs would both race and conflate
    // runs; each job gets its own pre-allocated slot (or a private one).
    c.registry = nullptr;
    if (!config.collect_observability) c.snapshot_interval = 0;
    c.trace_capacity = 0;  // the event tracer is a single-run tool
    // Churn/loss injection only applies to schemes with addressable client
    // caches.
    if (c.scheme != sim::Scheme::kHierGD && c.scheme != sim::Scheme::kSquirrel) {
      c.churn_events.clear();
      c.p2p_loss_rate = 0.0;
    }
    return c;
  };

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t j = next.fetch_add(1);
      if (j >= jobs.size()) return;
      const Job& job = jobs[j];
      auto job_config = make_config(job.size_index, job.scheme_index);
      if (config.collect_observability) {
        job_config.registry = job.scheme_index == num_schemes
                                  ? result.baseline_registries[job.size_index]
                                  : result.registries[job.size_index][job.scheme_index];
      }
      const auto metrics = sim::run_simulation(job_config, source);
      if (job.scheme_index == num_schemes) {
        result.baseline[job.size_index] = metrics;
      } else {
        result.metrics[job.size_index][job.scheme_index] = metrics;
      }
    }
  };

  unsigned threads = config.threads == 0 ? std::thread::hardware_concurrency() : config.threads;
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(jobs.size())));
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < num_sizes; ++i) {
    for (std::size_t k = 0; k < num_schemes; ++k) {
      if (reuses_baseline(k)) {
        result.metrics[i][k] = result.baseline[i];
        result.gains[i][k] = 0.0;
      } else {
        result.gains[i][k] =
            100.0 * sim::latency_gain(result.baseline[i], result.metrics[i][k]);
      }
    }
  }
  return result;
}

SweepResult run_sweep(const workload::Trace& trace, const SweepConfig& config) {
  return run_sweep(workload::MaterializedTraceSource(trace), config);
}

void print_gain_table(std::ostream& out, const SweepResult& result, const std::string& title) {
  out << "# " << title << "\n";
  out << "# infinite cache size = " << result.infinite_cache_size
      << " objects; client cache = " << result.client_cache_capacity << " objects\n";
  out << std::left << std::setw(10) << "# cache%";
  for (const auto s : result.schemes) {
    out << std::setw(10) << sim::to_string(s);
  }
  out << "\n" << std::fixed << std::setprecision(2);
  for (std::size_t i = 0; i < result.cache_percents.size(); ++i) {
    out << std::setw(10) << result.cache_percents[i];
    for (std::size_t k = 0; k < result.schemes.size(); ++k) {
      out << std::setw(10) << result.gains[i][k];
    }
    out << "\n";
  }
  out.flush();
}

void write_gain_csv(std::ostream& out, const SweepResult& result) {
  out << "cache_percent,scheme,latency_gain_percent,mean_latency,hit_ratio,"
         "local_proxy_hits,local_p2p_hits,remote_proxy_hits,remote_p2p_hits,"
         "server_fetches\n";
  for (std::size_t i = 0; i < result.cache_percents.size(); ++i) {
    for (std::size_t k = 0; k < result.schemes.size(); ++k) {
      const auto& m = result.metrics[i][k];
      out << result.cache_percents[i] << ',' << sim::to_string(result.schemes[k]) << ','
          << result.gains[i][k] << ',' << m.mean_latency() << ',' << m.hit_ratio() << ','
          << m.hits_local_proxy << ',' << m.hits_local_p2p << ',' << m.hits_remote_proxy
          << ',' << m.hits_remote_p2p << ',' << m.server_fetches << '\n';
    }
  }
  out.flush();
}

void write_metrics_json(std::ostream& out, const SweepResult& result,
                        const std::string& name) {
  if (result.registries.empty() || result.baseline_registries.empty()) {
    throw std::logic_error(
        "write_metrics_json: sweep was run without collect_observability");
  }
  out << "{\n  \"schema\": \"" << obs::kSchemaVersion << "\",\n  \"name\": \"" << name
      << "\",\n  \"infinite_cache_size\": " << result.infinite_cache_size
      << ",\n  \"client_cache_capacity\": " << result.client_cache_capacity
      << ",\n  \"runs\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < result.cache_percents.size(); ++i) {
    for (std::size_t k = 0; k < result.schemes.size(); ++k) {
      if (!first) out << ",\n";
      first = false;
      out << "    {\"cache_percent\": " << obs::format_double(result.cache_percents[i])
          << ", \"scheme\": \"" << sim::to_string(result.schemes[k])
          << "\", \"latency_gain_percent\": " << obs::format_double(result.gains[i][k])
          << ",\n     \"metrics\":\n";
      result.registries[i][k]->write_json_body(out, 5);
      out << "}";
    }
  }
  out << "\n  ]\n}\n";
}

SingleRun run_single(const workload::TraceSource& source, sim::SimConfig config) {
  SingleRun r;
  if (!config.registry) config.registry = std::make_shared<obs::Registry>();
  r.registry = config.registry;
  r.metrics = sim::run_simulation(config, source);
  sim::SimConfig nc = config;
  nc.scheme = sim::Scheme::kNC;
  nc.proxy_policy = cache::PolicyKind::kDefault;
  // NC has no addressable client caches: no churn or P2P loss.
  nc.churn_events.clear();
  nc.p2p_loss_rate = 0.0;
  nc.checkpoint_hook = {};  // audits target the scheme under test
  // The baseline must not pollute (or double-count into) the scheme run's
  // registry; it accounts into a private one.
  nc.registry = std::make_shared<obs::Registry>();
  nc.trace_capacity = 0;
  r.baseline_registry = nc.registry;
  const bool reuse = config.scheme == sim::Scheme::kNC &&
                     config.proxy_policy == cache::PolicyKind::kDefault;
  r.baseline = reuse ? r.metrics : sim::run_simulation(nc, source);
  r.gain_percent = 100.0 * sim::latency_gain(r.baseline, r.metrics);
  return r;
}

SingleRun run_single(const workload::Trace& trace, sim::SimConfig config) {
  return run_single(workload::MaterializedTraceSource(trace), std::move(config));
}

}  // namespace webcache::core
