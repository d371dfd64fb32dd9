// Trace-driven simulator for the seven caching schemes.
//
// Requests are partitioned round-robin over the proxy cluster (request t
// goes to proxy t mod P), which makes the per-proxy streams statistically
// identical (paper assumption 2) while keeping the object universe shared —
// the property inter-proxy cooperation feeds on. Within a cluster, the
// trace's client id picks the issuing client.
//
// Scheme wiring (see DESIGN.md section 4 for the normative semantics):
//   NC / SC       per-proxy LFU cache; SC additionally reads through
//                 cooperating proxies and copies what it fetches.
//   FC            SC lookup path + coordinated cost-benefit replacement
//                 with perfect frequency knowledge (upper bound).
//   NC-EC / SC-EC the proxy unified with its pooled P2P client cache as a
//                 TieredCache (tier 1 = proxy, tier 2 = client caches).
//   FC-EC         one coordinated cost-benefit cache of combined capacity
//                 per proxy; an LRU tracker of proxy-cache size attributes
//                 hits to tier 1 (Tl) or tier 2 (Tp2p).
//   Hier-GD       greedy-dual at the proxy, evictions destaged into a real
//                 Pastry-federated P2P client cache with object diversion,
//                 a lookup directory (exact or Bloom), piggybacked destages
//                 and the push protocol for remote access.
//
// One engine: each scheme's request path is written once (step_basic,
// step_tiered_ec, step_fc_ec, step_hier_gd, step_squirrel) and runs either
// sequentially (sim_shards = 0) or sharded (sim_shards >= 1,
// sim/sharded_run.cpp). The engines differ only in how a kernel reaches
// another cluster, through three helpers that branch once on the engine:
//   first_remote  which other cluster holds the object: the live residency
//                 table sequentially, the epoch-start digest when sharded;
//   record        a residency change: written to the table at once, or
//                 logged for the epoch barrier;
//   send          a cross-cluster op: applied at once (plus the push
//                 completion), or queued in the shard's outbox.
// Outcome counters, churn and loss streams live in lanes: one lane bound to
// the canonical registry sequentially, one per cluster when sharded.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cost_benefit.hpp"
#include "cache/greedy_dual.hpp"
#include "common/dense_map.hpp"
#include "cache/lfu.hpp"
#include "cache/lru.hpp"
#include "cache/policy.hpp"
#include "directory/directory.hpp"
#include "fault/churn_engine.hpp"
#include "fault/churn_schedule.hpp"
#include "fault/loss_model.hpp"
#include "net/latency_model.hpp"
#include "obs/registry.hpp"
#include "p2p/p2p_client_cache.hpp"
#include "sim/metrics.hpp"
#include "sim/residency_table.hpp"
#include "sim/scheme.hpp"
#include "sim/tiered_cache.hpp"
#include "workload/trace.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_stats.hpp"

namespace webcache::sim {

class Simulator;

enum class DirectoryKind { kExact, kBloom };

struct SimConfig {
  Scheme scheme = Scheme::kNC;
  unsigned num_proxies = 2;
  /// Proxy cache capacity, in objects, per proxy.
  std::size_t proxy_capacity = 500;
  /// Client population per proxy (paper default 100).
  ClientNum clients_per_cluster = 100;
  /// Cooperative browser-cache capacity per client, in objects (paper:
  /// 0.1% of the infinite cache size).
  std::size_t client_cache_capacity = 5;
  net::LatencyModel latencies = net::LatencyModel::from_ratios();
  /// Hier-GD lookup directory representation (paper Section 4.2).
  DirectoryKind directory = DirectoryKind::kExact;
  double bloom_target_fpr = 0.01;
  /// Hier-GD object diversion (paper Section 4.3); ablation switches it off.
  bool enable_diversion = true;
  /// How client-cache capacities vary across machines (paper Section 4.3
  /// motivates diversion by exactly this heterogeneity).
  p2p::CapacitySpread capacity_spread = p2p::CapacitySpread::kUniform;
  /// Proxy-tier replacement/admission policy override (CLI --proxy-policy).
  /// kDefault keeps each scheme's paper policy: LFU at NC/SC and the *-EC
  /// tier 1, greedy-dual at Hier-GD; the policy ablation sets kGreedyDual,
  /// kLru or kLfu here. FC/FC-EC reject any override — the clairvoyant
  /// cost-benefit coordinator IS those schemes (std::invalid_argument).
  cache::PolicyKind proxy_policy = cache::PolicyKind::kDefault;
  /// Client-tier policy override (CLI --client-policy): tier 2 of
  /// NC-EC/SC-EC (default LFU) and the per-client cooperative caches of
  /// Hier-GD/Squirrel (default greedy-dual). Ignored by NC/SC/FC, which have
  /// no client tier; rejected by FC-EC like proxy_policy.
  cache::PolicyKind client_policy = cache::PolicyKind::kDefault;
  /// Per-client *private* browser cache (the "local" partition of the
  /// client cache, paper Section 2). 0 disables it — the trace is then
  /// interpreted as the post-browser-cache request stream, which is the
  /// paper's evaluation setup.
  std::size_t browser_cache_capacity = 0;
  /// Churn schedule (crashes, delayed rejoins, fresh joins, periodic repair
  /// passes), executed by the fault::ChurnEngine at the scheduled trace
  /// positions. A crash loses the client's share of the P2P cache without
  /// telling the proxy's directory, which learns of it through failed
  /// lookups. Requires individually addressable client caches (Hier-GD or
  /// Squirrel); every event must name a proxy below num_proxies, checked at
  /// construction (std::invalid_argument).
  std::vector<fault::ChurnEvent> churn_events{};
  /// Probability in [0, 1) that any single P2P transfer (lookup, destage,
  /// push) is lost and must be retried after a timeout — each loss costs the
  /// request an extra Tp2p of (wasted) latency. Hier-GD/Squirrel only. The
  /// loss stream is forked off `seed`, so enabling it never perturbs the
  /// workload draws.
  double p2p_loss_rate = 0.0;
  /// Invoke `checkpoint_hook` after every `checkpoint_interval` requests
  /// (and once at end-of-trace). 0 with a non-null hook = end-of-trace only.
  /// The hook receives the simulator mid-run plus the number of requests
  /// completed; fault::make_audit_hook() supplies the invariant auditor.
  std::uint64_t checkpoint_interval = 0;
  std::function<void(const Simulator&, std::uint64_t)> checkpoint_hook{};
  pastry::OverlayConfig overlay{};
  std::uint64_t seed = 7;
  /// Optional precomputed statistics of the trace this config will run on
  /// (FC/FC-EC derive their perfect-frequency table from them). run_sweep
  /// shares one analysis across all its jobs instead of re-scanning the
  /// trace per simulator; when absent, the constructor analyzes the trace
  /// itself, so run_single and direct construction are unaffected.
  std::shared_ptr<const workload::TraceStats> trace_stats{};
  /// Optional precomputed ring-placement table: `(*object_ids)[o]` must be
  /// SHA-1(object_url(o)) for every object of the trace. Hier-GD/Squirrel
  /// build it in the constructor when absent; run_sweep shares one table
  /// across all its jobs (like trace_stats) so the per-object hashing runs
  /// once per sweep instead of once per job. Must cover exactly the trace's
  /// distinct_objects when supplied.
  std::shared_ptr<const std::vector<Uint128>> object_ids{};
  /// Observability registry every component of this simulation binds its
  /// instruments into (schema "webcache-metrics/1"; see README). When null
  /// the simulator creates a private one — reachable via
  /// Simulator::registry() — so metrics are always collected; supplying a
  /// registry lets callers keep it after the Simulator is gone.
  std::shared_ptr<obs::Registry> registry{};
  /// Capture a counter/gauge snapshot every N requests (0 = off).
  std::uint64_t snapshot_interval = 0;
  /// Ring capacity of the request-level event tracer (0 = off). Each served
  /// request records a TraceEvent
  /// {request index, ServedFrom code, latency, wasted latency}.
  std::size_t trace_capacity = 0;
  /// Replay chunk budget: how many requests run() pulls per TraceSource
  /// window before hinting the consumed prefix away. Bounds the resident
  /// set of an out-of-core replay; irrelevant to results (the request
  /// sequence is identical for any chunking). 0 = the process default
  /// (workload::default_replay_chunk, WEBCACHE_REPLAY_CHUNK overridable).
  std::size_t replay_chunk = 0;
  /// Intra-run sharding: number of worker shards one simulation is
  /// partitioned across. 0 (the default) selects the sequential engine. Any
  /// value >= 1 selects the sharded engine: proxy clusters (and their client
  /// populations) are partitioned round-robin over min(sim_shards,
  /// num_proxies) worker threads, each replaying its clusters' slice of the
  /// trace against its own data plane, with cross-cluster interactions
  /// resolved through an epoch-digest barrier protocol keyed on trace
  /// position. Both engines run the same scheme kernels. Results are
  /// byte-identical for EVERY sim_shards >= 1 (the value only sets the
  /// parallelism), but the cooperative schemes' numbers differ in detail
  /// from the sequential engine because remote lookups consult epoch-start
  /// digests (see README "Sharded runs"). Configurations whose semantics are
  /// inherently global — FC/FC-EC (clairvoyant coordinator), interval
  /// snapshots, the event tracer, checkpoint/audit hooks, or a single proxy
  /// — fall back to the sequential engine at any value.
  unsigned sim_shards = 0;
  /// Digest refresh period of the sharded engine, in trace positions
  /// (0 = default, 8192). A semantic parameter of the sharded engine:
  /// cross-cluster lookups within an epoch see the epoch-start digest.
  /// Results depend on it — but never on sim_shards, threads, or
  /// replay_chunk. Ignored by the sequential engine.
  std::uint64_t shard_epoch = 0;
};

class Simulator {
 public:
  /// The source must outlive the simulator; it is replayed in sequential
  /// chunks (SimConfig::replay_chunk), so out-of-core sources run in
  /// bounded memory. FC/FC-EC precompute the perfect frequency table from
  /// the stream here (one extra chunked pass).
  Simulator(SimConfig config, const workload::TraceSource& source);

  /// In-memory convenience: wraps `trace` in a MaterializedTraceSource the
  /// simulator owns. The trace must outlive the simulator.
  Simulator(SimConfig config, const workload::Trace& trace);
  ~Simulator();

  /// Replays the full trace and returns the metrics (a view over the
  /// registry's instruments). One-shot.
  Metrics run();

  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// The observability registry this simulation feeds (the config's, or the
  /// private fallback). Valid for the simulator's lifetime; exporters read
  /// it after run().
  [[nodiscard]] obs::Registry& registry() { return *registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return *registry_; }

  /// Current Metrics view over the registry (callable mid-run from
  /// instrumentation hooks; run() returns the final one).
  [[nodiscard]] Metrics metrics_view() const;

  /// Introspection for tests/ablations (null unless the scheme uses them).
  [[nodiscard]] const p2p::P2PClientCache* p2p_of(unsigned proxy) const;
  [[nodiscard]] const directory::LookupDirectory* directory_of(unsigned proxy) const;

  // --- read-only introspection for the invariant auditor -------------------
  /// The proxy-tier cache: NC/SC/FC's LFU/cost-benefit cache or Hier-GD's
  /// greedy-dual cache; null for the tiered/unified/Squirrel schemes.
  [[nodiscard]] const cache::Cache* proxy_cache_of(unsigned proxy) const;
  [[nodiscard]] const TieredCache* tiered_of(unsigned proxy) const;
  [[nodiscard]] const cache::CostBenefitCache* unified_of(unsigned proxy) const;
  [[nodiscard]] const cache::LruCache* tier_tracker_of(unsigned proxy) const;
  [[nodiscard]] const cache::LruCache* browser_of(unsigned proxy, ClientNum client) const;
  [[nodiscard]] const DenseMap<double>* fetch_costs_of(unsigned proxy) const;
  /// Cluster residency of the cooperative schemes (empty for a relation
  /// the scheme does not use). Live in a sequential run; the epoch-start
  /// digests in a sharded one.
  [[nodiscard]] const ResidencyTable& residency(Residency which) const {
    return residency_[static_cast<std::size_t>(which)];
  }

  /// True when `config` actually runs the sharded engine at sim_shards >= 1;
  /// false means any sim_shards value falls back to the sequential engine
  /// (see SimConfig::sim_shards for the list of sequential-only shapes).
  [[nodiscard]] static bool sharding_supported(const SimConfig& config);

 private:
  friend struct ShardedRunEngine;  ///< the sharded run loop (sharded_run.cpp)

  struct Proxy {
    // NC / SC / FC
    std::unique_ptr<cache::Cache> cache;
    // NC-EC / SC-EC
    std::unique_ptr<TieredCache> tiered;
    // FC-EC
    std::unique_ptr<cache::CostBenefitCache> unified;
    std::unique_ptr<cache::LruCache> tier_tracker;
    // Hier-GD (greedy-dual unless SimConfig::proxy_policy overrides it)
    std::unique_ptr<cache::Cache> gd;
    std::unique_ptr<p2p::P2PClientCache> p2p;
    std::unique_ptr<directory::LookupDirectory> dir;
    /// Last-paid retrieval cost per object (greedy-dual credits),
    /// direct-indexed by the dense object id (sized to the trace universe).
    DenseMap<double> fetch_cost;
    /// Private browser caches, one per client (empty unless enabled).
    std::vector<std::unique_ptr<cache::LruCache>> browsers;
  };

  /// The simulator's request-outcome instruments ("sim.*", "fault.*"),
  /// bound once per lane; every served request costs a handful of
  /// pointer-indirect increments.
  struct Instruments {
    Instruments(obs::Registry& registry, const net::LatencyModel& latencies);
    obs::Counter& requests;
    obs::Counter& hits_browser;
    obs::Counter& hits_local_proxy;
    obs::Counter& hits_local_p2p;
    obs::Counter& hits_remote_proxy;
    obs::Counter& hits_remote_p2p;
    obs::Counter& server_fetches;
    obs::Counter& fault_crashes;       ///< "fault.crashes"
    obs::Counter& fault_rejoins;       ///< "fault.rejoins"
    obs::Counter& fault_joins;         ///< "fault.joins"
    obs::Counter& fault_repairs;       ///< "fault.repairs" (scheduled passes)
    obs::Counter& fault_objects_lost;  ///< "fault.objects_lost" (crash casualties)
    obs::Gauge& total_latency;
    obs::Gauge& wasted_p2p_latency;
    RunningStat& p2p_hops;
    Histogram& latency_hist;  ///< per-request total latency distribution
    Histogram& hops_hist;     ///< Pastry hops per P2P operation
  };

  struct ResidencyChange {
    ObjectNum object = 0;
    Residency array = Residency::kPrimary;
    bool present = false;
  };

  /// Where a request's outcomes land: its instruments and simulator-level
  /// protocol messages ("net.*"), bound into `registry`, plus the churn and
  /// loss streams it draws from. A sequential run has one lane on the
  /// canonical registry with the global streams; a sharded run has one per
  /// cluster on a private registry with the cluster's own substreams, which
  /// only that cluster's shard touches during a phase (the alignment keeps
  /// neighbouring lanes off one cache line).
  struct alignas(64) Lane {
    Lane(obs::Registry& reg, const net::LatencyModel& latencies)
        : registry(reg), inst(reg, latencies), msg(reg, "net.") {}
    obs::Registry& registry;
    Instruments inst;
    net::MessageCounters msg;
    fault::ChurnEngine churn;
    fault::LossModel loss;
    /// Sharded runs: residency changes this epoch, applied to the digests
    /// single-threaded at the epoch barrier.
    std::vector<ResidencyChange> log;
  };

  /// A cross-cluster interaction. The sequential engine applies it at once;
  /// the sharded engine queues it and the target cluster's shard applies it
  /// in trace-position order at the epoch barrier. kProxyAccess/
  /// kTieredRefresh/kGdAccess refresh the remote copy; kPushFetch also
  /// carries the requester's in-flight accounting and receives the outcome
  /// that complete_push finishes the request with.
  enum class OpKind : std::uint8_t { kProxyAccess, kTieredRefresh, kGdAccess, kPushFetch };
  struct DeferredOp {
    std::uint64_t pos = 0;  ///< trace position (globally unique -> total order)
    ObjectNum object = 0;
    std::uint32_t source = 0;  ///< requesting cluster
    std::uint32_t target = 0;  ///< cluster whose state the op touches
    OpKind kind = OpKind::kProxyAccess;
    ClientNum raw_client = 0;  ///< kPushFetch: the request's raw client id
    double waste = 0.0;        ///< kPushFetch: requester waste so far
    double loss_waste = 0.0;   ///< kPushFetch: requester loss penalties so far
    bool hit = false;          ///< kPushFetch outcome (written by apply)
    unsigned hops = 0;         ///< kPushFetch outcome (written by apply)
  };

  /// Primary constructor: exactly one of `owned` / `external` is set; the
  /// public constructors forward here.
  Simulator(SimConfig config, std::unique_ptr<const workload::TraceSource> owned,
            const workload::TraceSource* external);

  [[nodiscard]] Lane& lane_of(unsigned cluster) { return lanes_[sharded_ ? cluster : 0]; }
  [[nodiscard]] ResidencyTable& table_of(Residency which) {
    return residency_[static_cast<std::size_t>(which)];
  }

  // --- the request path, shared by both engines ----------------------------
  /// Fires the churn events due at `now` on the cluster's stream (the global
  /// one in a sequential run).
  void advance_churn(unsigned cluster, std::uint64_t now);
  void apply_churn(const fault::ChurnEvent& event);
  /// Browser front end, scheme step, browser fill for request `t`.
  void serve(std::uint64_t t, const Request& request, unsigned cluster);
  /// Returns false when the request finishes in complete_push instead.
  bool step(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  void step_basic(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  void step_tiered_ec(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  void step_fc_ec(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  bool step_hier_gd(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  void step_squirrel(Lane& lane, std::uint64_t t, const Request& request, unsigned cluster);
  /// Hier-GD: admits a fetched object into the proxy's greedy-dual cache and
  /// destages the eviction, piggybacked on the response to `via_client`.
  void admit_hier_gd(Lane& lane, unsigned cluster, ObjectNum object, double cost,
                     ClientNum via_client, double& loss_waste);
  void destage_hier_gd(Lane& lane, unsigned cluster, ObjectNum victim, ClientNum via_client,
                       double& loss_waste);
  /// FC-EC: marks an object as recently proxy-resident (tier-1 attribution).
  void track_tier1(unsigned cluster, ObjectNum object);
  /// The live client a raw client id maps to (a failed machine's user
  /// retries through the next live neighbour).
  [[nodiscard]] ClientNum client_of(ClientNum raw, const Proxy& proxy) const;
  [[nodiscard]] double stored_cost(const Proxy& proxy, ObjectNum object) const;
  /// The client's private browser cache; null when browsers are off.
  [[nodiscard]] cache::LruCache* browser_for(unsigned cluster, ClientNum raw_client);
  void count_hops(Lane& lane, unsigned hops);
  /// Draws one P2P transfer against the lane's loss stream; a loss adds a
  /// retry penalty to the request's `loss_waste`.
  void maybe_lose(Lane& lane, double& loss_waste);
  /// Records one served request; latency = the model's latency for `where`
  /// plus the waste and loss surcharges.
  void account(Lane& lane, std::uint64_t t, net::ServedFrom where, double waste = 0.0,
               double loss_waste = 0.0);
  /// Same with an explicit total latency (Squirrel's proxy-less cost model).
  void account_raw(Lane& lane, std::uint64_t t, net::ServedFrom where, double latency,
                   double wasted_latency);

  // --- how a kernel reaches another cluster (the only engine difference) ----
  [[nodiscard]] int first_remote(Residency array, ObjectNum object, unsigned cluster) const;
  [[nodiscard]] static DeferredOp cross_op(OpKind kind, std::uint64_t t, ObjectNum object,
                                           unsigned source, int target);
  void record(unsigned cluster, Residency array, ObjectNum object, bool present);
  void send(DeferredOp op);
  /// Applies a cross-cluster op to its target cluster.
  void apply(DeferredOp& op);
  /// Finishes a Hier-GD push request on its requesting cluster.
  void complete_push(const DeferredOp& op);

  // --- intra-run sharding (sim/sharded_run.cpp) ----------------------------
  /// Sharded-engine state: per-cluster registries, the epoch length and the
  /// outboxes. Null when the sequential engine runs.
  struct ShardedState;
  /// The sharded run loop: per epoch, phase 1 (parallel local replay against
  /// epoch-start digests), phase 2a (apply inbound cross-cluster ops in trace
  /// order), phase 2b (complete own deferred requests), then a single-threaded
  /// digest/outbox flush; finally folds every cluster registry into the
  /// canonical registry in cluster order.
  Metrics run_sharded();
  void sharded_fold();

  SimConfig config_;
  std::unique_ptr<const workload::TraceSource> owned_source_;  ///< Trace-ctor adapter
  const workload::TraceSource* source_;                        ///< never null
  std::unique_ptr<cache::CostBenefitCoordinator> coordinator_;
  std::shared_ptr<const std::vector<Uint128>> object_ids_;
  std::vector<Proxy> proxies_;
  std::shared_ptr<obs::Registry> registry_;  // never null after construction
  /// Canonical "sim.*"/"fault.*" and "net.*" instruments, registered first
  /// (the export order) and read by metrics_view. A sequential run's one
  /// lane binds these same instruments; sharded lanes fold into them.
  Instruments inst_;
  net::MessageCounters msg_;
  std::deque<Lane> lanes_;
  std::array<ResidencyTable, 3> residency_;  ///< indexed by Residency
  bool ran_ = false;
  std::unique_ptr<ShardedState> sharded_;  ///< non-null = sharded engine runs
};

/// Convenience: construct, run, return metrics.
[[nodiscard]] Metrics run_simulation(const SimConfig& config, const workload::Trace& trace);
[[nodiscard]] Metrics run_simulation(const SimConfig& config,
                                     const workload::TraceSource& source);

}  // namespace webcache::sim
