// Internal state of the intra-run sharded engine (SimConfig::sim_shards).
//
// One simulation is partitioned by CLUSTER: cluster c belongs to worker
// shard c mod S (S = min(sim_shards, num_proxies)), and request t belongs to
// cluster t mod P exactly as in the sequential engine. Each cluster owns a
// lane (Simulator::Lane) bound to its own registry here. Cross-cluster
// interactions never touch another cluster's live state directly; the scheme
// kernels consult the epoch-start digests (Simulator::residency_) and send
// position-keyed ops into the shard's outbox, which the owning shard applies
// in trace order at the epoch barrier. Everything here is therefore a pure
// function of (config, trace) — never of the shard count, thread scheduling,
// or replay chunking.
//
// This header is internal to src/sim (simulator.cpp constructs the state,
// sharded_run.cpp drives it); it is not part of the public surface.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace webcache::sim {

/// Digest refresh period used when SimConfig::shard_epoch is 0.
inline constexpr std::uint64_t kDefaultShardEpoch = 8192;

struct Simulator::ShardedState {
  unsigned shards = 1;  ///< effective worker count = min(sim_shards, num_proxies)
  std::uint64_t epoch_len = kDefaultShardEpoch;
  /// One private registry per cluster: the cluster's lane and components
  /// bind here, so no registry is shared across threads. sharded_fold
  /// replays them into the canonical registry in cluster order.
  std::vector<std::unique_ptr<obs::Registry>> registries;
  std::vector<std::vector<DeferredOp>> outbox;  ///< one per shard, position-ordered
};

}  // namespace webcache::sim
