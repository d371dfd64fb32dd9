#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sharded.hpp"

namespace webcache::sim {

using net::ServedFrom;

Simulator::Instruments::Instruments(obs::Registry& registry,
                                    const net::LatencyModel& latencies)
    : requests(registry.counter("sim.requests")),
      hits_browser(registry.counter("sim.hits_browser")),
      hits_local_proxy(registry.counter("sim.hits_local_proxy")),
      hits_local_p2p(registry.counter("sim.hits_local_p2p")),
      hits_remote_proxy(registry.counter("sim.hits_remote_proxy")),
      hits_remote_p2p(registry.counter("sim.hits_remote_p2p")),
      server_fetches(registry.counter("sim.server_fetches")),
      fault_crashes(registry.counter("fault.crashes")),
      fault_rejoins(registry.counter("fault.rejoins")),
      fault_joins(registry.counter("fault.joins")),
      fault_repairs(registry.counter("fault.repairs")),
      fault_objects_lost(registry.counter("fault.objects_lost")),
      total_latency(registry.gauge("sim.total_latency")),
      wasted_p2p_latency(registry.gauge("sim.wasted_p2p_latency")),
      p2p_hop_latency_total(registry.gauge("sim.p2p_hop_latency_total")),
      p2p_hops(registry.stat("sim.p2p_hops")),
      // A request costs at most ~Ts plus waste surcharges; 4*Ts with 40
      // buckets resolves the Tl/Tc/Tp2p/Ts levels cleanly.
      latency_hist(registry.histogram("sim.request_latency", 0.0,
                                      4.0 * latencies.server(), 40)),
      hops_hist(registry.histogram("sim.p2p_hops", 0.0, 16.0, 16)) {}

Simulator::Simulator(SimConfig config, const workload::TraceSource& source)
    : Simulator(std::move(config), nullptr, &source) {}

Simulator::Simulator(SimConfig config, const workload::Trace& trace)
    : Simulator(std::move(config),
                std::make_unique<workload::MaterializedTraceSource>(trace), nullptr) {}

Simulator::Simulator(SimConfig config, std::unique_ptr<const workload::TraceSource> owned,
                     const workload::TraceSource* external)
    : config_(std::move(config)),
      owned_source_(std::move(owned)),
      source_(external != nullptr ? external : owned_source_.get()),
      registry_(config_.registry ? config_.registry : std::make_shared<obs::Registry>()),
      inst_(*registry_, config_.latencies),
      msg_(*registry_, "net.") {
  const ObjectNum universe = source_->distinct_objects();
  registry_->set_snapshot_interval(config_.snapshot_interval);
  if (config_.trace_capacity > 0) registry_->enable_tracing(config_.trace_capacity);
  if (config_.num_proxies == 0) {
    throw std::invalid_argument("Simulator: need at least one proxy");
  }
  if (proxies_cooperate(config_.scheme) && config_.num_proxies < 2) {
    throw std::invalid_argument("Simulator: cooperative schemes need >= 2 proxies");
  }
  // Policy overrides: FC/FC-EC are defined by the clairvoyant cost-benefit
  // coordinator, so a replacement-policy override there is a contradiction,
  // not a configuration.
  if (config_.proxy_policy != cache::PolicyKind::kDefault &&
      (config_.scheme == Scheme::kFC || config_.scheme == Scheme::kFC_EC)) {
    throw std::invalid_argument(
        "Simulator: FC/FC-EC cannot take a proxy-policy override — the "
        "clairvoyant cost-benefit coordinator is the scheme");
  }
  if (config_.client_policy != cache::PolicyKind::kDefault &&
      config_.scheme == Scheme::kFC_EC) {
    throw std::invalid_argument(
        "Simulator: FC-EC unifies both tiers under the clairvoyant "
        "coordinator; a client-policy override cannot apply");
  }

  const std::size_t p2p_capacity =
      static_cast<std::size_t>(config_.clients_per_cluster) * config_.client_cache_capacity;

  // Perfect frequency knowledge for the cost-benefit schemes. A sweep shares
  // one precomputed analysis across all its jobs; a lone simulator scans the
  // trace itself.
  if (config_.scheme == Scheme::kFC || config_.scheme == Scheme::kFC_EC) {
    std::shared_ptr<const workload::TraceStats> stats = config_.trace_stats;
    if (stats && stats->total_requests != source_->size()) {
      throw std::invalid_argument(
          "Simulator: config.trace_stats was computed from a different trace");
    }
    if (!stats) {
      stats = std::make_shared<const workload::TraceStats>(workload::analyze(*source_));
    }
    coordinator_ = std::make_unique<cache::CostBenefitCoordinator>(
        workload::per_proxy_frequency(*stats, config_.num_proxies), config_.num_proxies,
        config_.latencies.server(), config_.latencies.proxy_to_proxy());
  }

  // Intra-run sharding: any sim_shards >= 1 on a supported shape selects the
  // sharded engine. Each cluster then gets its own lane and registry, and
  // the residency tables below hold the epoch-start digests instead of live
  // residency; unsupported shapes keep the sequential engine at any
  // sim_shards value (see SimConfig::sim_shards).
  if (config_.sim_shards > 0 && sharding_supported(config_)) {
    sharded_ = std::make_unique<ShardedState>();
    ShardedState& st = *sharded_;
    st.shards = std::min(config_.sim_shards, config_.num_proxies);
    st.epoch_len = config_.shard_epoch > 0 ? config_.shard_epoch : kDefaultShardEpoch;
    st.outbox.resize(st.shards);
    for (unsigned c = 0; c < config_.num_proxies; ++c) {
      st.registries.push_back(std::make_unique<obs::Registry>());
      lanes_.emplace_back(*st.registries.back(), config_.latencies);
    }
  } else {
    lanes_.emplace_back(*registry_, config_.latencies);
  }

  if (proxies_cooperate(config_.scheme)) {
    table_of(Residency::kPrimary) = ResidencyTable(universe, config_.num_proxies);
  }
  if (config_.scheme == Scheme::kSC_EC || config_.scheme == Scheme::kFC_EC) {
    table_of(Residency::kSecondary) = ResidencyTable(universe, config_.num_proxies);
  }
  if (sharded_ && config_.scheme == Scheme::kHierGD) {
    table_of(Residency::kDir) = ResidencyTable(universe, config_.num_proxies);
  }

  if (config_.scheme == Scheme::kHierGD || config_.scheme == Scheme::kSquirrel) {
    // Ring placement is a pure function of the object universe, so run_sweep
    // shares one precomputed table across schemes and jobs (like trace_stats).
    if (config_.object_ids) {
      if (config_.object_ids->size() != universe) {
        throw std::invalid_argument(
            "Simulator: config.object_ids was built for a different object universe");
      }
      object_ids_ = config_.object_ids;
    } else {
      object_ids_ = directory::build_object_id_table(universe);
    }
  }

  const bool addressable_clients =
      config_.scheme == Scheme::kHierGD || config_.scheme == Scheme::kSquirrel;
  if ((!config_.client_failures.empty() || !config_.churn_events.empty()) &&
      !addressable_clients) {
    throw std::invalid_argument(
        "Simulator: client failures need individually addressable client caches "
        "(Hier-GD or Squirrel)");
  }
  if (config_.p2p_loss_rate != 0.0 && !addressable_clients) {
    throw std::invalid_argument(
        "Simulator: P2P message loss needs a P2P tier (Hier-GD or Squirrel)");
  }
  // Legacy one-shot failures become crash events on the same engine; the
  // stable sort keeps the authored order among same-time events.
  std::vector<fault::ChurnEvent> events;
  events.reserve(config_.client_failures.size() + config_.churn_events.size());
  for (const auto& f : config_.client_failures) {
    events.push_back({f.time, f.proxy, f.client, fault::ChurnAction::kCrash});
  }
  events.insert(events.end(), config_.churn_events.begin(), config_.churn_events.end());
  fault::ChurnEngine schedule(std::move(events));
  // Private loss stream forked off the run seed: enabling loss perturbs no
  // other draw, and the run stays a pure function of its configuration.
  const std::uint64_t loss_seed = config_.seed ^ 0x4c4f5353ULL;
  if (sharded_) {
    // Per-cluster slices of the globally sorted schedule (the stable filter
    // preserves same-cluster order) and per-(seed, cluster) loss substreams,
    // so each lane's draws depend only on its own event/transfer sequence.
    std::vector<std::vector<fault::ChurnEvent>> per_cluster(config_.num_proxies);
    for (const auto& event : schedule.events()) {
      if (event.proxy >= config_.num_proxies) {
        throw std::invalid_argument("Simulator: failure event references unknown proxy");
      }
      per_cluster[event.proxy].push_back(event);
    }
    for (unsigned c = 0; c < config_.num_proxies; ++c) {
      const std::uint64_t cluster_seed = loss_seed ^ (0x9e3779b97f4a7c15ULL * (c + 1));
      lanes_[c].churn = fault::ChurnEngine(std::move(per_cluster[c]));
      lanes_[c].loss = fault::LossModel(config_.p2p_loss_rate, SplitMix64(cluster_seed).next());
    }
  } else {
    lanes_[0].churn = std::move(schedule);
    lanes_[0].loss = fault::LossModel(config_.p2p_loss_rate, SplitMix64(loss_seed).next());
  }

  proxies_.resize(config_.num_proxies);
  for (unsigned p = 0; p < config_.num_proxies; ++p) {
    Proxy& proxy = proxies_[p];
    const std::string proxy_prefix = "proxy" + std::to_string(p) + ".";
    const std::string cluster_prefix = "cluster" + std::to_string(p) + ".";
    // A sharded run binds each cluster's components into the cluster's
    // private registry, after its lane (no cross-thread sharing on the hot
    // path); the post-run fold replays it into the canonical registry.
    obs::Registry& reg = lane_of(p).registry;
    if (config_.browser_cache_capacity > 0) {
      proxy.browsers.reserve(config_.clients_per_cluster);
      for (ClientNum c = 0; c < config_.clients_per_cluster; ++c) {
        proxy.browsers.push_back(
            std::make_unique<cache::LruCache>(config_.browser_cache_capacity));
      }
    }
    switch (config_.scheme) {
      case Scheme::kNC:
      case Scheme::kSC:
        proxy.cache = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                        config_.lfu_mode);
        if (proxy.cache == nullptr) {
          proxy.cache =
              std::make_unique<cache::LfuCache>(config_.proxy_capacity, config_.lfu_mode);
        }
        proxy.cache->reserve_universe(universe);
        proxy.cache->bind_observability(reg, proxy_prefix + "cache.");
        break;
      case Scheme::kFC:
        proxy.cache =
            std::make_unique<cache::CostBenefitCache>(config_.proxy_capacity, *coordinator_);
        proxy.cache->reserve_universe(universe);
        proxy.cache->bind_observability(reg, proxy_prefix + "cache.");
        break;
      case Scheme::kNC_EC:
      case Scheme::kSC_EC: {
        auto tier1 = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                       config_.lfu_mode);
        if (tier1 == nullptr) {
          tier1 = std::make_unique<cache::LfuCache>(config_.proxy_capacity, config_.lfu_mode);
        }
        auto tier2 =
            cache::make_cache(config_.client_policy, p2p_capacity, config_.lfu_mode);
        if (tier2 == nullptr) {
          tier2 = std::make_unique<cache::LfuCache>(p2p_capacity, config_.lfu_mode);
        }
        proxy.tiered = std::make_unique<TieredCache>(std::move(tier1), std::move(tier2));
        proxy.tiered->reserve_universe(universe);
        proxy.tiered->bind_observability(reg, proxy_prefix + "tiered.");
        if (config_.scheme == Scheme::kSC_EC) {
          // Tier transitions are the SC-EC residency changes (refreshes
          // never change membership).
          proxy.tiered->set_transition_hook([this, p](ObjectNum object, TieredCache::Where now) {
            record(p, Residency::kPrimary, object, now == TieredCache::Where::kTier1);
            record(p, Residency::kSecondary, object, now == TieredCache::Where::kTier2);
          });
        }
        break;
      }
      case Scheme::kFC_EC:
        proxy.unified = std::make_unique<cache::CostBenefitCache>(
            config_.proxy_capacity + p2p_capacity, *coordinator_);
        proxy.unified->reserve_universe(universe);
        proxy.unified->bind_observability(reg, proxy_prefix + "cache.");
        proxy.tier_tracker = std::make_unique<cache::LruCache>(config_.proxy_capacity);
        break;
      case Scheme::kHierGD: {
        // proxy_policy (when set) supersedes the legacy hier_proxy_policy
        // ablation enum; both default to the paper's greedy-dual.
        proxy.gd = cache::make_cache(config_.proxy_policy, config_.proxy_capacity,
                                     config_.lfu_mode);
        if (proxy.gd == nullptr) {
          switch (config_.hier_proxy_policy) {
            case HierProxyPolicy::kGreedyDual:
              proxy.gd = std::make_unique<cache::GreedyDualCache>(config_.proxy_capacity);
              break;
            case HierProxyPolicy::kLru:
              proxy.gd = std::make_unique<cache::LruCache>(config_.proxy_capacity);
              break;
            case HierProxyPolicy::kLfu:
              proxy.gd = std::make_unique<cache::LfuCache>(config_.proxy_capacity,
                                                           config_.lfu_mode);
              break;
          }
        }
        p2p::P2PConfig pc;
        pc.clients = config_.clients_per_cluster;
        pc.per_client_capacity = config_.client_cache_capacity;
        pc.capacity_spread = config_.capacity_spread;
        pc.overlay = config_.overlay;
        pc.enable_diversion = config_.enable_diversion;
        pc.client_policy = config_.client_policy;
        pc.name_prefix = "cluster" + std::to_string(p);
        proxy.p2p = std::make_unique<p2p::P2PClientCache>(pc, object_ids_, &reg);
        proxy.fetch_cost.reserve(universe);
        proxy.gd->reserve_universe(universe);
        proxy.gd->bind_observability(reg, proxy_prefix + "cache.");
        if (config_.directory == DirectoryKind::kExact) {
          proxy.dir = std::make_unique<directory::ExactDirectory>(&reg,
                                                                  cluster_prefix + "dir.");
        } else {
          proxy.dir = std::make_unique<directory::BloomDirectory>(
              object_ids_, p2p_capacity, config_.bloom_target_fpr, &reg,
              cluster_prefix + "dir.");
        }
        break;
      }
      case Scheme::kSquirrel: {
        // Proxy-less: only the federated browser caches exist. No lookup
        // directory — requests route straight to the object's home node.
        p2p::P2PConfig pc;
        pc.clients = config_.clients_per_cluster;
        pc.per_client_capacity = config_.client_cache_capacity;
        pc.capacity_spread = config_.capacity_spread;
        pc.overlay = config_.overlay;
        pc.enable_diversion = config_.enable_diversion;
        pc.client_policy = config_.client_policy;
        pc.name_prefix = "org" + std::to_string(p);
        proxy.p2p = std::make_unique<p2p::P2PClientCache>(pc, object_ids_, &reg);
        break;
      }
    }
  }
}

bool Simulator::sharding_supported(const SimConfig& config) {
  // FC/FC-EC: the clairvoyant cost-benefit coordinator couples every proxy's
  // replacement decisions per request — inherently globally sequential.
  if (config.scheme == Scheme::kFC || config.scheme == Scheme::kFC_EC) return false;
  // Interval snapshots and the event tracer are globally ordered streams of
  // the sequential engine, as are checkpoint/audit hooks (they probe global
  // mid-run state at exact positions).
  if (config.snapshot_interval > 0 || config.trace_capacity > 0) return false;
  if (config.checkpoint_hook) return false;
  // A single cluster has nothing to parallelize over.
  return config.num_proxies >= 2;
}

Simulator::~Simulator() = default;

const p2p::P2PClientCache* Simulator::p2p_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].p2p.get() : nullptr;
}

const directory::LookupDirectory* Simulator::directory_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].dir.get() : nullptr;
}

const cache::Cache* Simulator::proxy_cache_of(unsigned proxy) const {
  if (proxy >= proxies_.size()) return nullptr;
  const Proxy& p = proxies_[proxy];
  return p.cache ? p.cache.get() : p.gd.get();
}

const TieredCache* Simulator::tiered_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].tiered.get() : nullptr;
}

const cache::CostBenefitCache* Simulator::unified_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].unified.get() : nullptr;
}

const cache::LruCache* Simulator::tier_tracker_of(unsigned proxy) const {
  return proxy < proxies_.size() ? proxies_[proxy].tier_tracker.get() : nullptr;
}

const cache::LruCache* Simulator::browser_of(unsigned proxy, ClientNum client) const {
  if (proxy >= proxies_.size()) return nullptr;
  const Proxy& p = proxies_[proxy];
  return client < p.browsers.size() ? p.browsers[client].get() : nullptr;
}

const DenseMap<double>* Simulator::fetch_costs_of(unsigned proxy) const {
  return proxy < proxies_.size() ? &proxies_[proxy].fetch_cost : nullptr;
}

Metrics Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run: already ran (one-shot)");
  ran_ = true;

  if (sharded_) return run_sharded();

  const std::uint64_t checkpoint = config_.checkpoint_interval;
  bool checked_at_end = false;
  const std::uint64_t total = source_->size();
  // Replay in bounded windows: a materialized source hands back one spanning
  // window, an mmap source pages sequentially and releases consumed chunks.
  const std::size_t chunk =
      config_.replay_chunk > 0 ? config_.replay_chunk : workload::default_replay_chunk();
  for (std::uint64_t base = 0; base < total;) {
    const auto win = source_->window(base, chunk);
    if (win.empty()) break;  // defensive: a well-formed source never starves
    for (std::size_t i = 0; i < win.size(); ++i) {
      const std::uint64_t t = base + i;
      const auto cluster = static_cast<unsigned>(t % config_.num_proxies);
      advance_churn(cluster, t);
      serve(t, win[i], cluster);
      if (checkpoint > 0 && config_.checkpoint_hook && (t + 1) % checkpoint == 0) {
        config_.checkpoint_hook(*this, t + 1);
        checked_at_end = t + 1 == total;
      }
    }
    base += win.size();
    source_->discard_consumed(base);
  }
  // Always audit the final state, but not twice.
  if (config_.checkpoint_hook && !checked_at_end) {
    config_.checkpoint_hook(*this, total);
  }
  return metrics_view();
}

Metrics Simulator::metrics_view() const {
  Metrics m;
  m.requests = inst_.requests.value();
  m.hits_browser = inst_.hits_browser.value();
  m.hits_local_proxy = inst_.hits_local_proxy.value();
  m.hits_local_p2p = inst_.hits_local_p2p.value();
  m.hits_remote_proxy = inst_.hits_remote_proxy.value();
  m.hits_remote_p2p = inst_.hits_remote_p2p.value();
  m.server_fetches = inst_.server_fetches.value();
  m.total_latency = inst_.total_latency.value();
  m.wasted_p2p_latency = inst_.wasted_p2p_latency.value();
  m.p2p_hop_latency_total = inst_.p2p_hop_latency_total.value();
  m.p2p_hops = inst_.p2p_hops;
  // Simulator-level protocol messages plus each cluster's P2P substrate
  // traffic; the increment sets are disjoint, so the merge is a plain sum.
  m.messages = msg_.view();
  for (const auto& proxy : proxies_) {
    if (proxy.p2p) m.messages.merge(proxy.p2p->messages());
  }
  return m;
}

// --- shared helpers -------------------------------------------------------------

ClientNum Simulator::client_of(ClientNum raw, const Proxy& proxy) const {
  const ClientNum c = raw % config_.clients_per_cluster;
  if (proxy.p2p && !proxy.p2p->client_alive(c)) {
    // After fault injection a client may be gone; its user retries through a
    // neighbour's machine.
    for (ClientNum step = 1; step < config_.clients_per_cluster; ++step) {
      const ClientNum candidate = (c + step) % config_.clients_per_cluster;
      if (proxy.p2p->client_alive(candidate)) return candidate;
    }
    throw std::runtime_error("Simulator: all clients of a cluster have failed");
  }
  return c;
}

double Simulator::stored_cost(const Proxy& proxy, ObjectNum object) const {
  const double* stored = proxy.fetch_cost.find(object);
  return stored != nullptr ? *stored : config_.latencies.fetch_cost(ServedFrom::kOriginServer);
}

void Simulator::count_hops(Lane& lane, unsigned hops) {
  lane.inst.p2p_hops.add(static_cast<double>(hops));
  lane.inst.hops_hist.add(static_cast<double>(hops));
}

void Simulator::maybe_lose(Lane& lane, double& loss_waste) {
  if (!lane.loss.enabled()) return;
  if (lane.loss.lose_message()) {
    lane.msg.p2p_messages_lost.inc();
    lane.msg.p2p_retries.inc();
    loss_waste += config_.latencies.loss_retry_penalty();
  }
}

void Simulator::account(Lane& lane, std::uint64_t t, ServedFrom where, double waste,
                        double hop_latency, double loss_waste) {
  account_raw(lane, t, where,
              config_.latencies.request_latency(where) + waste + hop_latency + loss_waste,
              waste + loss_waste, hop_latency);
}

void Simulator::account_raw(Lane& lane, std::uint64_t t, ServedFrom where, double latency,
                            double wasted_latency, double hop_latency) {
  Instruments& inst = lane.inst;
  inst.requests.inc();
  switch (where) {
    case ServedFrom::kBrowser: inst.hits_browser.inc(); break;
    case ServedFrom::kLocalProxy: inst.hits_local_proxy.inc(); break;
    case ServedFrom::kLocalP2P: inst.hits_local_p2p.inc(); break;
    case ServedFrom::kRemoteProxy: inst.hits_remote_proxy.inc(); break;
    case ServedFrom::kRemoteP2P: inst.hits_remote_p2p.inc(); break;
    case ServedFrom::kOriginServer: inst.server_fetches.inc(); break;
  }
  inst.total_latency.add(latency);
  inst.wasted_p2p_latency.add(wasted_latency);
  inst.p2p_hop_latency_total.add(hop_latency);
  inst.latency_hist.add(latency);
  // Optional layers: the tracer records the request-level event, tick()
  // advances the snapshot clock. Both compile to nothing under
  // WEBCACHE_OBS_NO_TRACE and cost one predictable branch otherwise (a
  // sharded run never enables them on its cluster registries).
  lane.registry.record(t, static_cast<std::uint32_t>(where), latency, wasted_latency);
  lane.registry.tick();
}

void Simulator::advance_churn(unsigned cluster, std::uint64_t now) {
  lane_of(cluster).churn.advance(now, [this](const fault::ChurnEvent& e) { apply_churn(e); });
}

void Simulator::apply_churn(const fault::ChurnEvent& event) {
  if (event.proxy >= proxies_.size()) {
    throw std::invalid_argument("Simulator: failure event references unknown proxy");
  }
  Proxy& proxy = proxies_[event.proxy];
  Instruments& inst = lane_of(event.proxy).inst;
  switch (event.action) {
    case fault::ChurnAction::kCrash: {
      const ClientNum target = event.client % proxy.p2p->cluster_size();
      // No-op if the machine is already down; a crash that would take the
      // cluster's last live client is skipped (the paper's cluster always
      // has someone left to route from).
      if (!proxy.p2p->client_alive(target)) break;
      if (proxy.p2p->alive_clients() <= 1) break;
      // The crash silently loses the client's share of the P2P cache; the
      // proxy's directory is NOT told (that is the point of the experiment)
      // — it discovers the losses through failed lookups.
      const auto lost = proxy.p2p->fail_client(target);
      inst.fault_crashes.inc();
      inst.fault_objects_lost.inc(lost.size());
      break;
    }
    case fault::ChurnAction::kRejoin: {
      const ClientNum target = event.client % proxy.p2p->cluster_size();
      if (proxy.p2p->revive_client(target)) inst.fault_rejoins.inc();
      break;
    }
    case fault::ChurnAction::kJoin:
      (void)proxy.p2p->add_client();
      inst.fault_joins.inc();
      break;
    case fault::ChurnAction::kRepair:
      proxy.p2p->repair();
      inst.fault_repairs.inc();
      break;
  }
}

cache::LruCache* Simulator::browser_for(unsigned cluster, ClientNum raw_client) {
  auto& browsers = proxies_[cluster].browsers;
  if (browsers.empty()) return nullptr;
  return browsers[raw_client % config_.clients_per_cluster].get();
}

void Simulator::serve(std::uint64_t t, const Request& request, unsigned cluster) {
  Lane& lane = lane_of(cluster);
  cache::LruCache* browser = browser_for(cluster, request.client);
  if (browser != nullptr && browser->contains(request.object)) {
    browser->access(request.object, 0.0);
    account(lane, t, ServedFrom::kBrowser);
    return;
  }
  // A Hier-GD push finishes (browser fill included) in complete_push.
  if (step(lane, t, request, cluster) && browser != nullptr) {
    browser->insert(request.object, 0.0);  // private cache; evictions vanish
  }
}

// --- how a kernel reaches another cluster -------------------------------------

int Simulator::first_remote(Residency array, ObjectNum object, unsigned cluster) const {
  if (array == Residency::kDir && !sharded_) {
    // Sequential Hier-GD push target: probe the remote lookup directories in
    // ring order (a Bloom directory's false positives apply here too).
    for (unsigned q = 1; q < config_.num_proxies; ++q) {
      const unsigned remote = (cluster + q) % config_.num_proxies;
      if (proxies_[remote].dir->may_contain(object)) return static_cast<int>(remote);
    }
    return -1;
  }
  return residency(array).first_in_ring(object, cluster);
}

void Simulator::record(unsigned cluster, Residency array, ObjectNum object, bool present) {
  ResidencyTable& table = table_of(array);
  if (table.empty()) return;  // a relation this scheme/engine does not track
  if (sharded_) {
    lanes_[cluster].log.push_back({object, array, present});
  } else {
    table.assign(object, cluster, present);
  }
}

Simulator::DeferredOp Simulator::cross_op(OpKind kind, std::uint64_t t, ObjectNum object,
                                          unsigned source, int target) {
  DeferredOp op;
  op.pos = t;
  op.object = object;
  op.source = source;
  op.target = static_cast<std::uint32_t>(target);
  op.kind = kind;
  return op;
}

void Simulator::send(DeferredOp op) {
  if (sharded_) {
    sharded_->outbox[op.source % sharded_->shards].push_back(op);
    return;
  }
  apply(op);
  if (op.kind == OpKind::kPushFetch) complete_push(op);
}

void Simulator::apply(DeferredOp& op) {
  Proxy& remote = proxies_[op.target];
  const double refetch = config_.latencies.fetch_cost(ServedFrom::kOriginServer);
  // A sharded requester read an epoch-start digest: the advertised copy may
  // have left since, and the refresh is then a no-op (the requester's
  // outcome stands).
  switch (op.kind) {
    case OpKind::kProxyAccess:
      if (remote.cache->contains(op.object)) remote.cache->access(op.object, refetch);
      break;
    case OpKind::kTieredRefresh:
      if (remote.tiered->locate(op.object) != TieredCache::Where::kMiss) {
        remote.tiered->refresh(op.object, refetch);
      }
      break;
    case OpKind::kGdAccess:
      if (remote.gd->contains(op.object)) {
        remote.gd->access(op.object, stored_cost(remote, op.object));
      }
      break;
    case OpKind::kPushFetch: {
      const auto fetched = remote.p2p->fetch(op.object, client_of(op.raw_client, remote),
                                             /*remove_on_hit=*/false);
      op.hit = fetched.hit;
      op.hops = fetched.hops;
      if (!fetched.hit && config_.directory == DirectoryKind::kExact) {
        remote.dir->remove(op.object);
        record(op.target, Residency::kDir, op.object, false);
      }
      break;
    }
  }
}

void Simulator::complete_push(const DeferredOp& op) {
  const unsigned cluster = op.source;
  Lane& lane = lane_of(cluster);
  const auto& lat = config_.latencies;
  double waste = op.waste;
  double loss_waste = op.loss_waste;
  const double hop_latency = op.hop_latency + config_.p2p_hop_latency * op.hops;
  count_hops(lane, op.hops);

  ServedFrom served = ServedFrom::kOriginServer;
  if (op.hit) {
    lane.msg.push_transfers.inc();
    lane.msg.directory_true_positives.inc();
    served = ServedFrom::kRemoteP2P;
  } else {
    lane.msg.directory_false_positives.inc();
    waste += lat.proxy_to_proxy() + lat.p2p_fetch();
  }
  const ClientNum client = client_of(op.raw_client, proxies_[cluster]);
  admit_hier_gd(lane, cluster, op.object, lat.fetch_cost(served), client, loss_waste);
  account(lane, op.pos, served, waste, hop_latency, loss_waste);
  // A sharded push completes after the rest of its epoch, when a later
  // request may already have filled the browser.
  cache::LruCache* browser = browser_for(cluster, op.raw_client);
  if (browser != nullptr && !browser->contains(op.object)) browser->insert(op.object, 0.0);
}

// --- the scheme kernels -----------------------------------------------------------

bool Simulator::step(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster) {
  switch (config_.scheme) {
    case Scheme::kNC:
    case Scheme::kSC:
    case Scheme::kFC:
      step_basic(lane, t, request, cluster);
      return true;
    case Scheme::kNC_EC:
    case Scheme::kSC_EC:
      step_tiered_ec(lane, t, request, cluster);
      return true;
    case Scheme::kFC_EC:
      step_fc_ec(lane, t, request, cluster);
      return true;
    case Scheme::kHierGD:
      return step_hier_gd(lane, t, request, cluster);
    case Scheme::kSquirrel:
      step_squirrel(lane, t, request, cluster);
      return true;
  }
  return true;
}

// --- NC / SC / FC ------------------------------------------------------------

void Simulator::step_basic(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  if (coordinator_) coordinator_->consume(object);

  if (local.cache->contains(object)) {
    local.cache->access(object, config_.latencies.fetch_cost(ServedFrom::kOriginServer));
    account(lane, t, ServedFrom::kLocalProxy);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  if (proxies_cooperate(config_.scheme)) {
    const int holder = first_remote(Residency::kPrimary, object, cluster);
    if (holder >= 0) {
      send(cross_op(OpKind::kProxyAccess, t, object, cluster, holder));
      served = ServedFrom::kRemoteProxy;
    }
  }

  // SC always copies what it fetched; FC's cost-benefit policy may decline.
  const auto ins = local.cache->insert(object, config_.latencies.fetch_cost(served));
  if (ins.inserted) {
    record(cluster, Residency::kPrimary, object, true);
    if (ins.evicted) record(cluster, Residency::kPrimary, *ins.evicted, false);
  }
  account(lane, t, served);
}

// --- NC-EC / SC-EC ------------------------------------------------------------

void Simulator::step_tiered_ec(Lane& lane, std::uint64_t t, const Request& request,
                               unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;

  const auto where = local.tiered->locate(object);
  if (where != TieredCache::Where::kMiss) {
    local.tiered->access(object, config_.latencies.fetch_cost(ServedFrom::kOriginServer));
    const bool tier1 = where == TieredCache::Where::kTier1;
    account(lane, t, tier1 ? ServedFrom::kLocalProxy : ServedFrom::kLocalP2P);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  if (config_.scheme == Scheme::kSC_EC) {
    // Prefer a remote proxy hit (Tc) over a remote P2P hit (Tc + Tp2p);
    // either way the remote cluster refreshes its copy in place.
    int holder = first_remote(Residency::kPrimary, object, cluster);
    if (holder >= 0) {
      served = ServedFrom::kRemoteProxy;
    } else {
      holder = first_remote(Residency::kSecondary, object, cluster);
      if (holder >= 0) {
        // Push protocol: the remote cluster's client cache pushes the object
        // up through its own proxy.
        served = ServedFrom::kRemoteP2P;
        lane.msg.push_requests.inc();
        lane.msg.push_transfers.inc();
      }
    }
    if (holder >= 0) {
      send(cross_op(OpKind::kTieredRefresh, t, object, cluster, holder));
    }
  }

  local.tiered->admit(object, config_.latencies.fetch_cost(served));  // hook records
  account(lane, t, served);
}

// --- FC-EC (sequential only: the clairvoyant coordinator is global) ------------

void Simulator::track_tier1(unsigned cluster, ObjectNum object) {
  Proxy& proxy = proxies_[cluster];
  if (proxy.tier_tracker->contains(object)) {
    proxy.tier_tracker->access(object, 0.0);
    return;
  }
  const auto ins = proxy.tier_tracker->insert(object, 0.0);
  if (!ins.inserted) return;
  record(cluster, Residency::kPrimary, object, true);
  record(cluster, Residency::kSecondary, object, false);
  if (ins.evicted) {
    // The tracker's LRU evictee demotes to tier 2: it is still in the
    // unified cache (tracker membership is a subset of unified membership).
    record(cluster, Residency::kPrimary, *ins.evicted, false);
    record(cluster, Residency::kSecondary, *ins.evicted, true);
  }
}

void Simulator::step_fc_ec(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;

  // Clairvoyant bookkeeping: this request is no longer in the future.
  coordinator_->consume(object);

  if (local.unified->contains(object)) {
    const bool tier1 = local.tier_tracker->contains(object);
    local.unified->access(object, 0.0);
    track_tier1(cluster, object);  // tier-2 hits promote into proxy residence
    account(lane, t, tier1 ? ServedFrom::kLocalProxy : ServedFrom::kLocalP2P);
    return;
  }

  ServedFrom served = ServedFrom::kOriginServer;
  int holder = first_remote(Residency::kPrimary, object, cluster);
  if (holder >= 0) {
    served = ServedFrom::kRemoteProxy;
  } else {
    holder = first_remote(Residency::kSecondary, object, cluster);
    if (holder >= 0) {
      served = ServedFrom::kRemoteP2P;
      lane.msg.push_requests.inc();
      lane.msg.push_transfers.inc();
    }
  }
  if (holder >= 0) proxies_[static_cast<unsigned>(holder)].unified->access(object, 0.0);

  const auto ins = local.unified->insert(object, config_.latencies.fetch_cost(served));
  if (ins.inserted) {
    record(cluster, Residency::kSecondary, object, true);
    track_tier1(cluster, object);
    if (ins.evicted) {
      local.tier_tracker->erase(*ins.evicted);
      record(cluster, Residency::kPrimary, *ins.evicted, false);
      record(cluster, Residency::kSecondary, *ins.evicted, false);
    }
  }
  account(lane, t, served);
}

// --- Hier-GD ---------------------------------------------------------------------

void Simulator::destage_hier_gd(Lane& lane, unsigned cluster, ObjectNum victim,
                                ClientNum via_client, double& loss_waste) {
  Proxy& proxy = proxies_[cluster];
  // Piggybacked on the HTTP response already going to via_client (Sec. 4.4).
  lane.msg.destage_piggybacked.inc();
  lane.msg.destage_bytes.inc();  // unit-size objects

  const double credit = stored_cost(proxy, victim);
  maybe_lose(lane, loss_waste);  // the destage transfer itself may time out
  const auto outcome = proxy.p2p->store(victim, credit, via_client);
  count_hops(lane, outcome.hops);

  if (outcome.stored && !outcome.already_present) {
    proxy.dir->add(victim);
    lane.msg.directory_adds.inc();
    record(cluster, Residency::kDir, victim, true);
  }
  if (outcome.displaced) {
    proxy.dir->remove(*outcome.displaced);
    lane.msg.directory_removes.inc();
    record(cluster, Residency::kDir, *outcome.displaced, false);
  }
}

void Simulator::admit_hier_gd(Lane& lane, unsigned cluster, ObjectNum object, double cost,
                              ClientNum via_client, double& loss_waste) {
  Proxy& proxy = proxies_[cluster];
  // A sharded push completes after the rest of its epoch: a later request
  // may have admitted the object inline meanwhile. Honour the cache contract
  // (insert() is only for uncached objects) by refreshing instead. Never
  // true in a sequential run, where the push completes at once.
  if (proxy.gd->contains(object)) {
    const double* stored = proxy.fetch_cost.find(object);
    proxy.gd->access(object, stored != nullptr ? *stored : cost);
    return;
  }
  proxy.fetch_cost[object] = cost;
  const auto ins = proxy.gd->insert(object, cost);
  if (!ins.inserted) return;
  record(cluster, Residency::kPrimary, object, true);
  if (ins.evicted) {
    record(cluster, Residency::kPrimary, *ins.evicted, false);
    destage_hier_gd(lane, cluster, *ins.evicted, via_client, loss_waste);
  }
}

bool Simulator::step_hier_gd(Lane& lane, std::uint64_t t, const Request& request,
                             unsigned cluster) {
  Proxy& local = proxies_[cluster];
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;
  const ClientNum client = client_of(request.client, local);

  // Local proxy cache.
  if (local.gd->contains(object)) {
    local.gd->access(object, stored_cost(local, object));
    account(lane, t, ServedFrom::kLocalProxy);
    return true;
  }

  double waste = 0.0;
  double loss_waste = 0.0;
  double hop_latency = 0.0;

  // Local P2P client cache, gated by the lookup directory.
  if (local.dir->may_contain(object)) {
    maybe_lose(lane, loss_waste);
    const auto fetched = local.p2p->fetch(object, client, /*remove_on_hit=*/true);
    count_hops(lane, fetched.hops);
    hop_latency += config_.p2p_hop_latency * fetched.hops;
    if (fetched.hit) {
      lane.msg.directory_true_positives.inc();
      local.dir->remove(object);
      lane.msg.directory_removes.inc();
      record(cluster, Residency::kDir, object, false);
      // Promote into the proxy; the proxy's eviction destages back down.
      admit_hier_gd(lane, cluster, object, lat.fetch_cost(ServedFrom::kLocalP2P), client,
                    loss_waste);
      account(lane, t, ServedFrom::kLocalP2P, 0.0, hop_latency, loss_waste);
      return true;
    }
    // False positive (Bloom directory, or staleness after client failures):
    // the overlay round trip was wasted.
    lane.msg.directory_false_positives.inc();
    waste += lat.p2p_fetch();
    // An exact directory learns the truth from the failed lookup. A
    // counting-Bloom directory must NOT erase a key it never inserted —
    // that would corrupt shared counters into false negatives.
    if (config_.directory == DirectoryKind::kExact) {
      local.dir->remove(object);
      record(cluster, Residency::kDir, object, false);
    }
  }

  // Cooperating proxies: their caches first (cheaper), then the push
  // protocol (Sec. 4.5) against the first cluster whose directory has it.
  ServedFrom served = ServedFrom::kOriginServer;
  const int holder = first_remote(Residency::kPrimary, object, cluster);
  const int push_to = holder >= 0 ? -1 : first_remote(Residency::kDir, object, cluster);
  if (holder >= 0) {
    send(cross_op(OpKind::kGdAccess, t, object, cluster, holder));
    served = ServedFrom::kRemoteProxy;
  } else if (push_to >= 0) {
    lane.msg.push_requests.inc();
    maybe_lose(lane, loss_waste);
    DeferredOp push = cross_op(OpKind::kPushFetch, t, object, cluster, push_to);
    push.raw_client = request.client;
    push.waste = waste;
    push.loss_waste = loss_waste;
    push.hop_latency = hop_latency;
    send(push);
    return false;  // complete_push finishes the request
  }

  admit_hier_gd(lane, cluster, object, lat.fetch_cost(served), client, loss_waste);
  account(lane, t, served, waste, hop_latency, loss_waste);
  return true;
}

// --- Squirrel (extension) -------------------------------------------------------

void Simulator::step_squirrel(Lane& lane, std::uint64_t t, const Request& request,
                              unsigned cluster) {
  Proxy& org = proxies_[cluster];
  const ObjectNum object = request.object;
  const auto& lat = config_.latencies;
  const ClientNum client = client_of(request.client, org);

  // The requesting client routes straight to the object's home node. A home
  // hit serves at LAN cost; on a miss the home node fetches from the origin
  // server, caches the object (home-store model) and forwards it.
  double loss_waste = 0.0;
  maybe_lose(lane, loss_waste);
  const auto fetched = org.p2p->fetch(object, client, /*remove_on_hit=*/false);
  count_hops(lane, fetched.hops);
  const double hop_latency = config_.p2p_hop_latency * fetched.hops;

  if (fetched.hit) {
    account_raw(lane, t, ServedFrom::kLocalP2P, lat.p2p_fetch() + hop_latency + loss_waste,
                loss_waste, hop_latency);
    return;
  }
  // The home-store leg may also time out; draw it before accounting so its
  // retry penalty lands on this request.
  maybe_lose(lane, loss_waste);
  account_raw(lane, t, ServedFrom::kOriginServer,
              lat.p2p_fetch() + lat.server() + hop_latency + loss_waste, loss_waste, hop_latency);
  // The home node stores the object with its refetch cost as the credit.
  // (store() routes again from the client; the message count conservatively
  // includes both legs.)
  (void)org.p2p->store(object, lat.fetch_cost(ServedFrom::kOriginServer), client);
}

Metrics run_simulation(const SimConfig& config, const workload::Trace& trace) {
  Simulator sim(config, trace);
  return sim.run();
}

Metrics run_simulation(const SimConfig& config, const workload::TraceSource& source) {
  Simulator sim(config, source);
  return sim.run();
}

}  // namespace webcache::sim
