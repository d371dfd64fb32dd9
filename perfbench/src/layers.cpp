#include "layers.hpp"

#include <string>
#include <string_view>

#include "cache/cost_benefit.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/lfu.hpp"
#include "directory/directory.hpp"
#include "net/latency_model.hpp"
#include "p2p/p2p_client_cache.hpp"
#include "pastry/node_id.hpp"
#include "pastry/overlay.hpp"

namespace perfbench {

using webcache::ClientNum;
using webcache::ObjectNum;
using webcache::Request;

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// "proxy3.tiered.tier2.hits" -> {"tier2", "hits"}: the policy-cache
/// counters are the ones whose owner component names a cache.
bool is_policy_counter(std::string_view name, std::string_view what) {
  if (!ends_with(name, what)) return false;
  const std::string_view owner = name.substr(0, name.size() - what.size());
  return ends_with(owner, ".cache.") || ends_with(owner, ".client_cache.") ||
         ends_with(owner, ".tier1.") || ends_with(owner, ".tier2.");
}

double origin_cost() {
  return webcache::net::LatencyModel::from_ratios().fetch_cost(
      webcache::net::ServedFrom::kOriginServer);
}

double ns_per(double seconds, std::uint64_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

volatile std::uint64_t g_sink = 0;  // keeps replay results observable

}  // namespace

void LayerCounts::add(const webcache::obs::Registry& registry) {
  for (const auto& name : registry.counter_names()) {
    const std::uint64_t v = registry.counter_value(name);
    const bool proxy_tier = name.rfind("proxy", 0) == 0;
    if (is_policy_counter(name, "hits")) {
      cache_hits += v;
      if (proxy_tier) proxy_cache_ops += v;
    } else if (is_policy_counter(name, "insertions")) {
      cache_insertions += v;
      if (proxy_tier) proxy_cache_ops += v;
    } else if (is_policy_counter(name, "evictions")) {
      cache_evictions += v;
    } else if (ends_with(name, "dir.lookups")) {
      dir_lookups += v;
    } else if (ends_with(name, "dir.positives")) {
      dir_positives += v;
    } else if (ends_with(name, "dir.adds") || ends_with(name, "dir.removes")) {
      dir_updates += v;
    } else if (ends_with(name, "pastry.messages_routed")) {
      routes += v;
    } else if (ends_with(name, "pastry.total_hops")) {
      route_hops += v;
    } else if (ends_with(name, "pastry.fallback_hops")) {
      fallback_hops += v;
    } else if (name.rfind("cluster", 0) == 0 && ends_with(name, ".net.diversions")) {
      p2p_diversions += v;
    }
  }
  // Every P2P store (a destage) and fetch adds one sample to sim.p2p_hops.
  const std::uint64_t stores = registry.counter_value("net.destage_piggybacked") +
                               registry.counter_value("net.destage_dedicated");
  const auto* hops = registry.find_stat("sim.p2p_hops");
  const std::uint64_t p2p_ops = hops == nullptr ? 0 : hops->count();
  p2p_stores += stores;
  p2p_fetches += p2p_ops >= stores ? p2p_ops - stores : 0;
  crashes += registry.counter_value("fault.crashes");
  objects_lost += registry.counter_value("fault.objects_lost");
  repairs += registry.counter_value("fault.repairs");
  p2p_retries += registry.counter_value("net.p2p_retries");
}

std::vector<Request> sample_requests(const webcache::workload::TraceSource& source,
                                     std::size_t max_requests) {
  std::vector<Request> out;
  out.reserve(std::min<std::uint64_t>(max_requests, source.size()));
  while (out.size() < max_requests) {
    const auto win = source.window(out.size(), max_requests - out.size());
    if (win.empty()) break;
    out.insert(out.end(), win.begin(), win.end());
  }
  return out;
}

double price_cache(PolicyPrice policy, const std::vector<Request>& keys, ObjectNum universe,
                   unsigned proxies, std::size_t capacity,
                   const webcache::workload::TraceStats* stats, Tracer& tracer) {
  namespace wc = webcache::cache;
  const auto latencies = webcache::net::LatencyModel::from_ratios();
  std::unique_ptr<wc::CostBenefitCoordinator> coordinator;
  std::vector<std::unique_ptr<wc::Cache>> caches;
  for (unsigned p = 0; p < proxies; ++p) {
    switch (policy) {
      case PolicyPrice::kLfuDa:
        caches.push_back(std::make_unique<wc::LfuCache>(capacity, wc::LfuMode::kDynamicAging));
        break;
      case PolicyPrice::kGreedyDual:
        caches.push_back(std::make_unique<wc::GreedyDualCache>(capacity));
        break;
      case PolicyPrice::kCostBenefit:
        if (!coordinator) {
          coordinator = std::make_unique<wc::CostBenefitCoordinator>(
              webcache::workload::per_proxy_frequency(*stats, proxies), proxies,
              latencies.server(), latencies.proxy_to_proxy());
        }
        caches.push_back(std::make_unique<wc::CostBenefitCache>(capacity, *coordinator));
        break;
    }
    caches.back()->reserve_universe(universe);
  }
  const double cost = origin_cost();
  const char* name = policy == PolicyPrice::kLfuDa        ? "cache.replay.lfu_da"
                     : policy == PolicyPrice::kGreedyDual ? "cache.replay.greedy_dual"
                                                          : "cache.replay.cost_benefit";
  const double seconds = tracer.timed(name, [&] {
    for (std::size_t t = 0; t < keys.size(); ++t) {
      const ObjectNum object = keys[t].object;
      if (coordinator) coordinator->consume(object);
      wc::Cache& c = *caches[t % proxies];
      if (c.contains(object)) {
        c.access(object, cost);
      } else {
        c.insert(object, cost);
      }
    }
  });
  std::uint64_t resident = 0;
  for (const auto& c : caches) resident += c->size();
  g_sink = g_sink + resident;
  return ns_per(seconds, keys.size());
}

double price_directory(const std::vector<Request>& keys, std::size_t capacity, Tracer& tracer) {
  webcache::directory::ExactDirectory dir;
  std::vector<ObjectNum> fifo;
  fifo.reserve(keys.size());
  std::size_t head = 0;
  std::uint64_t ops = 0;
  const double seconds = tracer.timed("directory.replay", [&] {
    for (const Request& r : keys) {
      ++ops;
      if (dir.may_contain(r.object)) {
        dir.remove(r.object);  // promoted to the proxy
        ++ops;
        continue;
      }
      dir.add(r.object);  // destaged into the client tier
      fifo.push_back(r.object);
      ++ops;
      while (dir.entry_count() > capacity && head < fifo.size()) {
        const ObjectNum oldest = fifo[head++];
        if (dir.audit_contains(oldest)) {
          dir.remove(oldest);  // evicted from the client tier
          ++ops;
        }
      }
    }
  });
  g_sink = g_sink + dir.entry_count();
  return ns_per(seconds, ops);
}

double price_route(const std::vector<Request>& keys,
                   const std::vector<webcache::Uint128>& object_ids, ClientNum clients,
                   Tracer& tracer) {
  webcache::pastry::Overlay overlay;
  for (ClientNum c = 0; c < clients; ++c) {
    overlay.add_node(webcache::pastry::node_id_for("cluster0/client" + std::to_string(c)));
  }
  std::uint64_t hops = 0;
  const double seconds = tracer.timed("pastry.replay", [&] {
    for (const Request& r : keys) {
      hops += overlay.route(static_cast<std::uint32_t>(r.client % clients),
                            object_ids[r.object])
                  .hops;
    }
  });
  g_sink = g_sink + hops;
  return ns_per(seconds, keys.size());
}

P2PPrice price_p2p(const std::vector<Request>& keys,
                   std::shared_ptr<const std::vector<webcache::Uint128>> ids, ClientNum clients,
                   std::size_t per_client_capacity, Tracer& tracer) {
  webcache::obs::Registry registry;
  webcache::p2p::P2PConfig config;
  config.clients = clients;
  config.per_client_capacity = per_client_capacity;
  webcache::p2p::P2PClientCache cluster(config, std::move(ids), &registry);
  const double cost = origin_cost();
  const double seconds = tracer.timed("p2p.replay", [&] {
    for (const Request& r : keys) {
      const ClientNum via = r.client % clients;
      if (cluster.contains(r.object)) {
        (void)cluster.fetch(r.object, via, /*remove_on_hit=*/true);
      } else {
        (void)cluster.store(r.object, cost, via);
      }
    }
  });
  g_sink = g_sink + cluster.size();
  P2PPrice price;
  price.ns_per_op = ns_per(seconds, keys.size());
  price.routes_per_op =
      keys.empty() ? 0.0
                   : static_cast<double>(registry.counter_value("cluster0.pastry.messages_routed")) /
                         static_cast<double>(keys.size());
  return price;
}

double decode_req_per_s(const webcache::workload::TraceSource& source, std::size_t chunk,
                        Tracer& tracer) {
  std::uint64_t sum = 0;
  const double seconds = tracer.timed("workload.decode_pass", [&] {
    for (std::uint64_t pos = 0; pos < source.size();) {
      const auto win = source.window(pos, chunk);
      if (win.empty()) break;
      for (const Request& r : win) sum += r.object;
      pos += win.size();
      source.discard_consumed(pos);
    }
  });
  g_sink = g_sink + sum;
  return seconds > 0.0 ? static_cast<double>(source.size()) / seconds : 0.0;
}

}  // namespace perfbench
