#include "fault/invariant_auditor.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "cache/greedy_dual.hpp"
#include "sim/simulator.hpp"

namespace webcache::fault {

namespace {

/// Collects violations with a running check count; every assertion funnels
/// through expect() so the report's `checks` reflects real coverage.
struct Checker {
  AuditReport report;

  void expect(bool condition, const std::string& what) {
    ++report.checks;
    if (!condition) report.violations.push_back(what);
  }

  /// Structural soundness of one fixed-capacity cache: the size it reports,
  /// the contents it enumerates, membership answers, and its eviction choice
  /// must all agree. For greedy-dual, the victim must carry the minimum
  /// credit (heap-order soundness).
  void check_cache(const std::string& label, const cache::Cache& c) {
    const auto contents = c.contents();
    expect(contents.size() == c.size(), label + ": contents()/size() disagree");
    expect(c.size() <= c.capacity(), label + ": over capacity");
    std::unordered_set<ObjectNum> seen;
    for (const auto object : contents) {
      expect(seen.insert(object).second,
             label + ": duplicate object " + std::to_string(object));
      expect(c.contains(object),
             label + ": contents() lists object " + std::to_string(object) +
                 " but contains() denies it");
    }
    const auto victim = c.peek_victim();
    if (c.size() > 0) {
      expect(victim.has_value(), label + ": non-empty cache offers no victim");
    }
    if (victim) {
      expect(seen.contains(*victim), label + ": victim not among contents");
      if (const auto* gd = dynamic_cast<const cache::GreedyDualCache*>(&c)) {
        const double vc = gd->credit(*victim);
        for (const auto object : contents) {
          expect(vc <= gd->credit(object) + 1e-9,
                 label + ": victim credit above object " + std::to_string(object) +
                     " (eviction order unsound)");
        }
      }
    }
  }

  /// The cluster-residency table must mirror the actual caches exactly, at
  /// any proxy count; a drifted row silently reroutes cooperative lookups.
  void check_residency(const sim::Simulator& sim) {
    const auto& config = sim.config();
    const auto& primary = sim.residency(sim::Residency::kPrimary);
    const auto& secondary = sim.residency(sim::Residency::kSecondary);
    if (primary.empty()) return;  // non-cooperative schemes carry no table
    const ObjectNum universe = primary.universe();
    sim::ResidencyTable want_primary(universe, config.num_proxies);
    sim::ResidencyTable want_secondary(universe, config.num_proxies);
    const auto mark = [&](sim::ResidencyTable& table, const std::vector<ObjectNum>& objects,
                          unsigned p) {
      for (const auto object : objects) {
        expect(object < universe, "residency: proxy " + std::to_string(p) +
                                      " caches object " + std::to_string(object) +
                                      " outside the trace universe");
        table.assign(object, p, true);
      }
    };
    for (unsigned p = 0; p < config.num_proxies; ++p) {
      switch (config.scheme) {
        case sim::Scheme::kSC:
        case sim::Scheme::kFC:
        case sim::Scheme::kHierGD:
          mark(want_primary, sim.proxy_cache_of(p)->contents(), p);
          break;
        case sim::Scheme::kSC_EC:
          mark(want_primary, sim.tiered_of(p)->tier1().contents(), p);
          mark(want_secondary, sim.tiered_of(p)->tier2().contents(), p);
          break;
        case sim::Scheme::kFC_EC: {
          // Tier 2 = the unified cache minus the tier tracker.
          const auto* tracker = sim.tier_tracker_of(p);
          std::vector<ObjectNum> tier2;
          for (const auto object : sim.unified_of(p)->contents()) {
            if (!tracker->contains(object)) tier2.push_back(object);
          }
          mark(want_primary, tracker->contents(), p);
          mark(want_secondary, tier2, p);
          break;
        }
        default:
          return;
      }
    }
    const auto same = [](std::span<const std::uint64_t> a, std::span<const std::uint64_t> b) {
      // An unallocated relation reads as all-empty rows.
      const auto zero = [](std::uint64_t w) { return w == 0; };
      if (a.empty()) return std::all_of(b.begin(), b.end(), zero);
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    for (ObjectNum object = 0; object < universe; ++object) {
      expect(same(primary.row(object), want_primary.row(object)),
             "residency: primary row of object " + std::to_string(object) +
                 " disagrees with cache contents");
      expect(same(secondary.row(object), want_secondary.row(object)),
             "residency: secondary row of object " + std::to_string(object) +
                 " disagrees with cache contents");
    }
  }

  /// Pastry well-formedness: leaf sets and routing tables must be
  /// structurally valid at every checkpoint — even mid-churn, when *stale*
  /// (dead) references are legal, malformed ones never are.
  void check_overlay(const std::string& label, const pastry::Overlay& overlay) {
    for (const auto& id : overlay.nodes()) {
      const auto& leaves = overlay.leaf_set(id);
      expect(leaves.owner() == id, label + ": leaf set owner mismatch");
      expect(leaves.clockwise().size() <= leaves.capacity() / 2,
             label + ": clockwise leaf side overfull");
      expect(leaves.counter_clockwise().size() <= leaves.capacity() / 2,
             label + ": counter-clockwise leaf side overfull");
      std::unordered_set<pastry::NodeId, Uint128Hash> seen;
      for (const auto& member : leaves.members()) {
        expect(member != id, label + ": leaf set contains its owner");
        expect(seen.insert(member).second, label + ": duplicate leaf-set member");
      }
      const auto& table = overlay.routing_table(id);
      const auto populated = table.populated();
      expect(populated.size() == table.populated_count(),
             label + ": populated()/populated_count() disagree");
      for (const auto& entry : populated) {
        expect(entry != id, label + ": routing table contains its owner");
        const auto slot = table.slot_of(entry);
        expect(slot.has_value(), label + ": populated entry without a canonical slot");
        if (slot) {
          const auto at = table.entry(slot->first, slot->second);
          expect(at == std::optional<pastry::NodeId>(entry),
                 label + ": routing entry not stored at its canonical slot");
        }
      }
    }
  }

  /// Hier-GD's cluster: physical P2P consistency, the directory contract
  /// (Bloom never lies negatively; exact mirrors residency until crashes
  /// make bounded staleness legal), and proxy-tier credit bookkeeping.
  void check_cluster(const sim::Simulator& sim, unsigned p) {
    const auto* p2p = sim.p2p_of(p);
    const std::string label = "cluster" + std::to_string(p);
    for (auto& violation : p2p->audit_violations()) {
      ++report.checks;
      report.violations.push_back(label + ": " + violation);
    }
    ++report.checks;  // the audit_violations sweep itself

    const auto* dir = sim.directory_of(p);
    if (dir == nullptr) return;  // Squirrel: no directory layer

    const auto residents = p2p->resident_objects();
    const std::uint64_t crashes = sim.registry().counter_value("fault.crashes");
    const bool bloom = sim.config().directory == sim::DirectoryKind::kBloom;
    if (bloom || crashes == 0) {
      // No false negatives: every resident object must answer positively. A
      // counting Bloom filter only ever forgets what actually left, so this
      // holds even under churn; an exact directory can legitimately purge
      // unreachable residents once crashes reshuffle Pastry roots.
      for (const auto object : residents) {
        expect(dir->audit_contains(object),
               label + ": directory false negative for resident object " +
                   std::to_string(object));
      }
    }
    if (!bloom) {
      // Ghost entries (entry without a resident object) only come from crash
      // losses the directory has not discovered yet — their count is bounded
      // by the objects ever lost. Without crashes the mirror is exact.
      std::unordered_set<ObjectNum> resident_set(residents.begin(), residents.end());
      std::uint64_t ghosts = 0;
      const ObjectNum universe = sim.residency(sim::Residency::kPrimary).universe();
      for (ObjectNum object = 0; object < universe; ++object) {
        if (dir->audit_contains(object) && !resident_set.contains(object)) ++ghosts;
      }
      const std::uint64_t lost = sim.registry().counter_value("fault.objects_lost");
      expect(ghosts <= (crashes == 0 ? 0 : lost),
             label + ": " + std::to_string(ghosts) +
                 " ghost directory entries exceed the " + std::to_string(lost) +
                 " objects lost to crashes");
    }

    // Proxy-tier greedy-dual credits: every cached object must have a
    // recorded fetch cost to destage with.
    const auto* costs = sim.fetch_costs_of(p);
    for (const auto object : sim.proxy_cache_of(p)->contents()) {
      expect(costs->contains(object),
             label + ": proxy-cached object " + std::to_string(object) +
                 " has no recorded fetch cost");
    }
  }

  /// Request accounting: every request was served exactly once, from exactly
  /// one place — the ledger behind "failures cost latency, never bytes".
  void check_accounting(const sim::Simulator& sim, std::uint64_t now) {
    const auto m = sim.metrics_view();
    expect(m.requests == now, "accounting: requests processed (" +
                                  std::to_string(m.requests) +
                                  ") != checkpoint position (" + std::to_string(now) + ")");
    const std::uint64_t outcomes = m.hits_browser + m.hits_local_proxy +
                                   m.hits_local_p2p + m.hits_remote_proxy +
                                   m.hits_remote_p2p + m.server_fetches;
    expect(outcomes == m.requests, "accounting: outcome counters sum to " +
                                       std::to_string(outcomes) + " for " +
                                       std::to_string(m.requests) + " requests");
    expect(m.messages.p2p_retries == m.messages.p2p_messages_lost,
           "accounting: every lost P2P message must be retried exactly once");
  }
};

}  // namespace

AuditReport audit(const sim::Simulator& sim, std::uint64_t now) {
  Checker checker;
  const auto& config = sim.config();
  checker.check_accounting(sim, now);
  checker.check_residency(sim);

  for (unsigned p = 0; p < config.num_proxies; ++p) {
    const std::string proxy_label = "proxy" + std::to_string(p);
    if (const auto* cache = sim.proxy_cache_of(p)) {
      checker.check_cache(proxy_label + ".cache", *cache);
    }
    if (const auto* tiered = sim.tiered_of(p)) {
      checker.check_cache(proxy_label + ".tier1", tiered->tier1());
      checker.check_cache(proxy_label + ".tier2", tiered->tier2());
      for (const auto object : tiered->tier1().contents()) {
        checker.expect(!tiered->tier2().contains(object),
                       proxy_label + ": object " + std::to_string(object) +
                           " resident in both tiers");
      }
    }
    if (const auto* unified = sim.unified_of(p)) {
      checker.check_cache(proxy_label + ".unified", *unified);
      const auto* tracker = sim.tier_tracker_of(p);
      checker.check_cache(proxy_label + ".tier_tracker", *tracker);
      for (const auto object : tracker->contents()) {
        checker.expect(unified->contains(object),
                       proxy_label + ": tracker object " + std::to_string(object) +
                           " missing from the unified cache");
      }
    }
    if (config.browser_cache_capacity > 0) {
      for (ClientNum c = 0; c < config.clients_per_cluster; ++c) {
        checker.check_cache(proxy_label + ".browser" + std::to_string(c),
                            *sim.browser_of(p, c));
      }
    }
    if (const auto* p2p = sim.p2p_of(p)) {
      checker.check_overlay("cluster" + std::to_string(p) + ".overlay", p2p->overlay());
      checker.check_cluster(sim, p);
    }
  }
  return checker.report;
}

std::function<void(const sim::Simulator&, std::uint64_t)> make_audit_hook() {
  return [](const sim::Simulator& sim, std::uint64_t now) {
    const AuditReport report = audit(sim, now);
    if (report.ok()) return;
    std::string message = "invariant audit failed at request " + std::to_string(now) + ":";
    for (const auto& violation : report.violations) {
      message += "\n  - " + violation;
    }
    throw std::logic_error(message);
  };
}

}  // namespace webcache::fault
