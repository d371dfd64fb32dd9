#include "p2p/p2p_client_cache.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/sha1.hpp"

namespace webcache::p2p {

namespace {

/// One client's cooperative cache slice: the configured policy, defaulting
/// to the paper's greedy-dual.
std::unique_ptr<cache::Cache> make_client_cache(const P2PConfig& config, ClientNum index) {
  return cache::make_cache(config.client_policy, cache::PolicyKind::kGreedyDual,
                           client_capacity(config, index));
}

}  // namespace

std::size_t client_capacity(const P2PConfig& config, ClientNum index) {
  const std::size_t base = config.per_client_capacity;
  switch (config.capacity_spread) {
    case CapacitySpread::kUniform:
      return base;
    case CapacitySpread::kBimodal:
      // Alternating big/small machines: 1.5x and 0.5x keep the same total.
      return index % 2 == 0 ? base + base / 2 + base % 2 : base / 2;
    case CapacitySpread::kProportional: {
      // Linear spread 2*base*(k+1)/(N+1); totals ~= N*base. A participating
      // client donates at least one slot (a zero-capacity root could never
      // accept its own keyspace's objects).
      const double share = 2.0 * static_cast<double>(base) *
                           static_cast<double>(index + 1) /
                           static_cast<double>(config.clients + 1);
      return std::max<std::size_t>(1, static_cast<std::size_t>(share + 0.5));
    }
  }
  return base;
}

P2PClientCache::P2PClientCache(P2PConfig config,
                               std::shared_ptr<const std::vector<Uint128>> object_ids,
                               obs::Registry* registry)
    : config_(std::move(config)),
      object_ids_(std::move(object_ids)),
      overlay_(config_.overlay, &obs::ensure_registry(registry, owned_registry_),
               config_.name_prefix + ".pastry."),
      msg_(obs::ensure_registry(registry, owned_registry_), config_.name_prefix + ".net.") {
  if (config_.clients == 0) {
    throw std::invalid_argument("P2PClientCache: need at least one client");
  }
  if (!object_ids_) {
    throw std::invalid_argument("P2PClientCache: object id table required");
  }

  obs::Registry& reg = obs::ensure_registry(registry, owned_registry_);
  registry_ = &reg;
  const std::string cache_prefix = config_.name_prefix + ".client_cache.";
  location_.reserve(object_ids_->size());
  nodes_.reserve(config_.clients);
  for (ClientNum c = 0; c < config_.clients; ++c) {
    ClientNode node;
    node.id = pastry::node_id_for(config_.name_prefix + "/client" + std::to_string(c));
    node.cache = make_client_cache(config_, c);
    // Every client cache binds to the same cluster-wide prefix, so the
    // counters aggregate across the whole P2P client cache.
    node.cache->bind_observability(reg, cache_prefix);
    const std::uint32_t slot = overlay_.add_node(node.id);
    assert(slot == nodes_.size() && "client index must equal overlay slot");
    (void)slot;
    nodes_.push_back(std::move(node));
  }
}

const Uint128& P2PClientCache::id_of(ObjectNum object) const {
  if (object >= object_ids_->size()) {
    throw std::out_of_range("P2PClientCache: object outside the id table");
  }
  return (*object_ids_)[object];
}

const std::vector<ClientNum>& P2PClientCache::leaf_clients_of(std::size_t root_idx) {
  ClientNode& root = nodes_[root_idx];
  const std::uint64_t version = overlay_.topology_version();
  if (root.leaf_version != version) {
    root.leaf_clients.clear();
    // Same enumeration order as a direct leaf-set scan; members may be stale
    // (dead) — slots are permanent, so they still resolve, and the scan
    // filters on alive.
    overlay_.leaf_set(root.id).visit_members([&](const pastry::NodeId& leaf_id) {
      root.leaf_clients.push_back(static_cast<ClientNum>(overlay_.slot_of(leaf_id)));
      return false;
    });
    root.leaf_version = version;
  }
  return root.leaf_clients;
}

std::size_t P2PClientCache::total_capacity() const {
  std::size_t total = 0;
  for (const auto& n : nodes_) {
    if (n.alive) total += n.cache->capacity();
  }
  return total;
}

void P2PClientCache::detach(ObjectNum object, std::size_t idx) {
  ClientNode& holder = nodes_[idx];
  holder.cache->erase(object);
  if (const ClientNum* root_idx = holder.diverted_in.find(object)) {
    // Tell the root its pointer is dangling.
    nodes_[*root_idx].diverted_out.erase(object);
    holder.diverted_in.erase(object);
  }
  location_.erase(object);
}

void P2PClientCache::on_local_eviction(ObjectNum victim, std::size_t idx) {
  // "The evicted object from the client cache is simply discarded."
  ClientNode& holder = nodes_[idx];
  if (const ClientNum* root_idx = holder.diverted_in.find(victim)) {
    nodes_[*root_idx].diverted_out.erase(victim);
    holder.diverted_in.erase(victim);
  }
  location_.erase(victim);
}

StoreOutcome P2PClientCache::store(ObjectNum object, double cost, ClientNum via_client) {
  StoreOutcome outcome;
  if (via_client >= nodes_.size() || !nodes_[via_client].alive) {
    throw std::invalid_argument("P2PClientCache::store: via_client invalid or dead");
  }

  // A live copy may already exist (e.g. the proxy re-fetched from the origin
  // after a Bloom false negative never happens, but SC-style double-destage
  // can); refresh its credit instead of double-storing.
  if (const std::uint32_t* holder = location_.find(object)) {
    nodes_[*holder].cache->access(object, cost);
    outcome.stored = true;
    outcome.already_present = true;
    return outcome;
  }

  // Route the piggybacked object from the carrying client to the root
  // (client index == overlay slot, so both ends skip the NodeId hashes).
  const auto route = overlay_.route(static_cast<std::uint32_t>(via_client), id_of(object));
  outcome.hops = route.hops;
  msg_.pastry_forward_messages.inc(route.hops);

  const std::size_t root_idx = route.destination_slot;
  ClientNode& root = nodes_[root_idx];

  // (3)-(5): root has free space -> store locally.
  if (!root.cache->full()) {
    const auto ins = root.cache->insert(object, cost);
    if (!ins.inserted) return outcome;  // capacity-0 client caches
    assert(!ins.evicted.has_value());
    location_[object] = static_cast<std::uint32_t>(root_idx);
    outcome.stored = true;
    msg_.store_receipts.inc();
    return outcome;
  }

  // (7)-(10): object diversion — find a leaf-set member with free space.
  // The member list is the cached leaf set resolved to client indices (same
  // order as a direct scan); a client is storable iff it is alive — a dead
  // leaf reference the root has not yet repaired maps to !alive here, which
  // is exactly the overlay-membership check the old NodeId path did.
  if (config_.enable_diversion) {
    for (const ClientNum peer_idx : leaf_clients_of(root_idx)) {
      ClientNode& peer = nodes_[peer_idx];
      if (!peer.alive || peer.cache->full()) continue;
      const auto ins = peer.cache->insert(object, cost);
      if (!ins.inserted) continue;
      assert(!ins.evicted.has_value());
      peer.diverted_in[object] = static_cast<ClientNum>(root_idx);
      root.diverted_out[object] = peer_idx;
      location_[object] = peer_idx;
      outcome.stored = true;
      outcome.diverted = true;
      outcome.hops += 1;  // root -> peer transfer
      msg_.diversions.inc();
      msg_.pastry_forward_messages.inc();
      msg_.store_receipts.inc();
      return outcome;
    }
  }

  // (12)-(14): whole neighborhood full — local greedy-dual replacement.
  const auto ins = root.cache->insert(object, cost);
  if (!ins.inserted) return outcome;  // capacity-0 client caches
  if (ins.evicted) {
    on_local_eviction(*ins.evicted, root_idx);
    outcome.displaced = ins.evicted;
  }
  location_[object] = static_cast<std::uint32_t>(root_idx);
  outcome.stored = true;
  msg_.store_receipts.inc();
  return outcome;
}

FetchOutcome P2PClientCache::fetch(ObjectNum object, ClientNum via_client, bool remove_on_hit) {
  FetchOutcome outcome;
  if (via_client >= nodes_.size() || !nodes_[via_client].alive) {
    throw std::invalid_argument("P2PClientCache::fetch: via_client invalid or dead");
  }

  const auto route = overlay_.route(static_cast<std::uint32_t>(via_client), id_of(object));
  outcome.hops = route.hops;
  msg_.pastry_forward_messages.inc(route.hops);

  const std::size_t root_idx = route.destination_slot;
  ClientNode& root = nodes_[root_idx];

  std::size_t holder_idx = root_idx;
  if (!root.cache->contains(object)) {
    const ClientNum* peer_idx = root.diverted_out.find(object);
    if (peer_idx == nullptr) return outcome;  // miss (false positive)
    holder_idx = *peer_idx;
    if (!nodes_[holder_idx].alive || !nodes_[holder_idx].cache->contains(object)) {
      return outcome;  // dangling pointer after a failure
    }
    outcome.via_diversion_pointer = true;
    outcome.hops += 1;
    msg_.diversion_pointer_lookups.inc();
    msg_.pastry_forward_messages.inc();
  }

  outcome.hit = true;
  if (remove_on_hit) {
    detach(object, holder_idx);
    outcome.removed = true;
  } else {
    nodes_[holder_idx].cache->access(object, /*cost=*/0.0);
  }
  return outcome;
}

std::vector<ObjectNum> P2PClientCache::fail_client(ClientNum client) {
  if (client >= nodes_.size()) {
    throw std::invalid_argument("P2PClientCache::fail_client: no such client");
  }
  ClientNode& node = nodes_[client];
  if (!node.alive) return {};

  // Everything physically stored here is gone.
  std::vector<ObjectNum> lost = node.cache->contents();
  for (const auto object : lost) {
    on_local_eviction(object, client);
    node.cache->erase(object);
  }
  // Pointers this node held as root now dangle; the peers' copies survive
  // but become unreachable through the (dead) root — drop them too, as the
  // new root cannot know about them. This mirrors what a real deployment
  // loses on a root crash before re-replication.
  node.diverted_out.for_each([&](ObjectNum object, ClientNum peer_idx) {
    nodes_[peer_idx].cache->erase(object);
    nodes_[peer_idx].diverted_in.erase(object);
    location_.erase(object);
    lost.push_back(object);
  });
  node.diverted_out.clear();

  node.alive = false;
  overlay_.fail_node(node.id);
  return lost;
}

bool P2PClientCache::revive_client(ClientNum client) {
  if (client >= nodes_.size()) {
    throw std::invalid_argument("P2PClientCache::revive_client: no such client");
  }
  ClientNode& node = nodes_[client];
  if (node.alive) return false;
  // fail_client emptied the cache and both diversion maps; the machine comes
  // back cold at the same ring position and network coordinates.
  assert(node.cache->size() == 0);
  assert(node.diverted_in.empty() && node.diverted_out.empty());
  overlay_.rejoin_node(node.id);
  node.alive = true;
  return true;
}

ClientNum P2PClientCache::add_client() {
  const ClientNum index = static_cast<ClientNum>(nodes_.size());
  ClientNode node;
  node.id = pastry::node_id_for(config_.name_prefix + "/client" + std::to_string(index));
  node.cache = make_client_cache(config_, index);
  node.cache->bind_observability(*registry_, config_.name_prefix + ".client_cache.");
  const std::uint32_t slot = overlay_.add_node(node.id);
  assert(slot == index && "client index must equal overlay slot");
  (void)slot;
  nodes_.push_back(std::move(node));
  return index;
}

ClientNum P2PClientCache::alive_clients() const {
  ClientNum alive = 0;
  for (const auto& n : nodes_) {
    if (n.alive) ++alive;
  }
  return alive;
}

std::vector<ObjectNum> P2PClientCache::contents_of(ClientNum client) const {
  if (client >= nodes_.size()) {
    throw std::invalid_argument("P2PClientCache::contents_of: no such client");
  }
  return nodes_[client].cache->contents();
}

double P2PClientCache::utilization_cv() const {
  double mean = 0.0;
  std::size_t alive = 0;
  for (const auto& n : nodes_) {
    if (!n.alive) continue;
    mean += static_cast<double>(n.cache->size());
    ++alive;
  }
  if (alive == 0) return 0.0;
  mean /= static_cast<double>(alive);
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (const auto& n : nodes_) {
    if (!n.alive) continue;
    const double d = static_cast<double>(n.cache->size()) - mean;
    var += d * d;
  }
  var /= static_cast<double>(alive);
  return std::sqrt(var) / mean;
}

std::vector<ObjectNum> P2PClientCache::resident_objects() const {
  std::vector<ObjectNum> objects;
  objects.reserve(location_.size());
  location_.for_each([&objects](ObjectNum object, std::uint32_t) { objects.push_back(object); });
  return objects;
}

std::vector<std::string> P2PClientCache::audit_violations() const {
  std::vector<std::string> v;
  const auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };

  // Location index -> node caches.
  location_.for_each([&](ObjectNum object, std::uint32_t idx) {
    if (idx >= nodes_.size()) {
      fail("location of object " + std::to_string(object) + " points past the node list");
      return;
    }
    const ClientNode& holder = nodes_[idx];
    if (!holder.alive) {
      fail("object " + std::to_string(object) + " located at dead client " +
           std::to_string(idx));
    }
    if (!holder.cache->contains(object)) {
      fail("object " + std::to_string(object) + " located at client " +
           std::to_string(idx) + " but absent from its cache");
    }
  });

  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    const ClientNode& node = nodes_[idx];
    // Node caches -> location index, and capacity bounds.
    if (node.cache->size() > node.cache->capacity()) {
      fail("client " + std::to_string(idx) + " cache over capacity");
    }
    for (const auto object : node.cache->contents()) {
      const std::uint32_t* loc = location_.find(object);
      if (loc == nullptr || *loc != idx) {
        fail("object " + std::to_string(object) + " cached at client " +
             std::to_string(idx) + " without a matching location entry");
      }
    }
    if (!node.alive) {
      if (node.cache->size() != 0 || !node.diverted_in.empty() ||
          !node.diverted_out.empty()) {
        fail("dead client " + std::to_string(idx) + " still holds state");
      }
      continue;
    }
    // Diversion pointer symmetry: root's diverted_out ↔ peer's diverted_in.
    node.diverted_out.for_each([&](ObjectNum object, ClientNum peer_idx) {
      if (peer_idx >= nodes_.size()) {
        fail("diverted_out of client " + std::to_string(idx) + " names an unknown peer");
        return;
      }
      const ClientNode& peer = nodes_[peer_idx];
      const ClientNum* back = peer.diverted_in.find(object);
      if (!peer.alive || back == nullptr || *back != idx) {
        fail("diversion pointer for object " + std::to_string(object) +
             " (root client " + std::to_string(idx) + ") has no live back-pointer");
      }
      const std::uint32_t* loc = location_.find(object);
      if (loc == nullptr || *loc != peer_idx) {
        fail("diverted object " + std::to_string(object) + " not located at its peer");
      }
    });
    node.diverted_in.for_each([&](ObjectNum object, ClientNum root_idx) {
      if (root_idx >= nodes_.size()) {
        fail("diverted_in of client " + std::to_string(idx) + " names an unknown root");
        return;
      }
      const ClientNode& root = nodes_[root_idx];
      const ClientNum* fwd = root.diverted_out.find(object);
      if (!root.alive || fwd == nullptr || *fwd != idx) {
        fail("held-for-root object " + std::to_string(object) + " (client " +
             std::to_string(idx) + ") has no live forward pointer");
      }
    });
  }
  return v;
}

}  // namespace webcache::p2p
