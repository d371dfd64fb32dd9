// Per-layer measurements for the traced run.
//
// Two kinds of numbers come from here:
//  * Registry counts: the webcache-metrics/1 counters of the real run,
//    summed per layer (how much work each layer did).
//  * Isolated prices: each layer's public calls replayed alone on the
//    workload's own request/key stream, giving a cost per operation. A
//    price times the real run's operation count, divided by the run's
//    time, is the layer's *priced share* — an isolated estimate of how much
//    of the run the layer can account for (caches are warmer and nothing
//    else competes in isolation, so treat it as an estimate, not a
//    measurement of the run itself).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "common/types.hpp"
#include "common/uint128.hpp"
#include "obs/registry.hpp"
#include "workload/trace_source.hpp"
#include "workload/trace_stats.hpp"

namespace perfbench {

/// Registry counters of one or more runs, summed per layer.
struct LayerCounts {
  std::uint64_t cache_hits = 0;        ///< every policy cache (proxy and client tiers)
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t proxy_cache_ops = 0;   ///< proxy-tier hits + insertions only
  std::uint64_t dir_lookups = 0;
  std::uint64_t dir_positives = 0;
  std::uint64_t dir_updates = 0;       ///< adds + removes
  std::uint64_t routes = 0;
  std::uint64_t route_hops = 0;
  std::uint64_t fallback_hops = 0;
  std::uint64_t p2p_stores = 0;
  std::uint64_t p2p_fetches = 0;
  std::uint64_t p2p_diversions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t objects_lost = 0;
  std::uint64_t repairs = 0;
  std::uint64_t p2p_retries = 0;

  void add(const webcache::obs::Registry& registry);
};

/// The first `max_requests` requests of a source, materialized for the
/// isolated replays.
[[nodiscard]] std::vector<webcache::Request> sample_requests(
    const webcache::workload::TraceSource& source, std::size_t max_requests);

enum class PolicyPrice { kLfuDa, kGreedyDual, kCostBenefit };

/// ns per policy operation (a contains probe plus the access or insert it
/// leads to) with `proxies` caches of `capacity` fed round-robin, as the
/// simulator partitions requests. Cost-benefit needs the trace statistics.
[[nodiscard]] double price_cache(PolicyPrice policy, const std::vector<webcache::Request>& keys,
                                 webcache::ObjectNum universe, unsigned proxies,
                                 std::size_t capacity,
                                 const webcache::workload::TraceStats* stats, Tracer& tracer);

/// ns per exact-directory operation (lookup, add or remove), driven the way
/// Hier-GD drives it: a lookup per key, promotion on a positive, an add on
/// a negative, and FIFO removals that keep `capacity` entries.
[[nodiscard]] double price_directory(const std::vector<webcache::Request>& keys,
                                     std::size_t capacity, Tracer& tracer);

/// ns per Pastry route on a `clients`-node overlay, from each request's
/// client toward the object's ring id.
[[nodiscard]] double price_route(const std::vector<webcache::Request>& keys,
                                 const std::vector<webcache::Uint128>& object_ids,
                                 webcache::ClientNum clients, Tracer& tracer);

struct P2PPrice {
  double ns_per_op = 0.0;      ///< store or fetch, Pastry routing included
  double routes_per_op = 0.0;  ///< overlay routes one operation makes
};
/// Drives one cluster's P2P client cache: fetch (promote) keys it holds,
/// store the others.
[[nodiscard]] P2PPrice price_p2p(const std::vector<webcache::Request>& keys,
                                 std::shared_ptr<const std::vector<webcache::Uint128>> ids,
                                 webcache::ClientNum clients, std::size_t per_client_capacity,
                                 Tracer& tracer);

/// Requests per second of a full window() pass at `chunk` records per window.
[[nodiscard]] double decode_req_per_s(const webcache::workload::TraceSource& source,
                                      std::size_t chunk, Tracer& tracer);

}  // namespace perfbench
