// Output checks behind `failed` / `attempted`: every simulation the
// benchmark runs is one attempt, and it fails when any of its checks fails.
//
//  * Cross-foot: sim.requests (the registry counter and the Metrics view)
//    equals the sum of the outcome counters and equals the trace length.
//  * Reference digest (sequential runs only): a hash of the outcome counters
//    and the mean latency (7 significant digits, so a different float
//    summation order does not change it), compared against the digest
//    committed in reference_digests.txt for this workload and seed. Seeds
//    without committed digests are checked for run-to-run determinism
//    instead: every repetition must reproduce the first one's digest.
//  * Workload assertions (sharding really on, trace never materialized) are
//    attached to the simulation they concern.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

[[nodiscard]] std::string outcome_digest(const webcache::sim::Metrics& m);

class Checker {
 public:
  /// Loads the committed digests of `workload` (lines
  /// "<workload> <seed> <label> <digest>"; '#' starts a comment). When
  /// `record_path` is non-empty, every digest computed is appended there in
  /// the same format instead of being compared.
  Checker(std::string workload, std::uint64_t seed, const std::string& refs_path,
          std::string record_path);

  /// Checks one finished simulation. `digest` selects the reference-digest
  /// check (sequential runs); `assertions` are extra named conditions that
  /// must hold for this simulation.
  void simulation(const std::string& label, const webcache::sim::Metrics& metrics,
                  const webcache::obs::Registry& registry, std::uint64_t trace_length,
                  bool digest,
                  const std::vector<std::pair<std::string, bool>>& assertions = {});

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t digests_compared() const { return compared_; }
  [[nodiscard]] bool has_references() const { return !references_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::string record_path_;
  std::map<std::string, std::string> references_;  ///< label -> digest
  std::map<std::string, std::string> first_seen_;  ///< label -> digest (rep 0)
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t compared_ = 0;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
