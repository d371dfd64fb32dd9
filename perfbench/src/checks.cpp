#include "checks.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string outcome_digest(const webcache::sim::Metrics& m) {
  char mean[32];
  std::snprintf(mean, sizeof mean, "%.7g", m.mean_latency());
  std::ostringstream canon;
  canon << m.requests << ' ' << m.hits_browser << ' ' << m.hits_local_proxy << ' '
        << m.hits_local_p2p << ' ' << m.hits_remote_proxy << ' ' << m.hits_remote_p2p << ' '
        << m.server_fetches << ' ' << mean;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : canon.str()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

Checker::Checker(std::string workload, std::uint64_t seed, const std::string& refs_path,
                 std::string record_path)
    : workload_(std::move(workload)), seed_(seed), record_path_(std::move(record_path)) {
  if (!record_path_.empty()) return;
  std::ifstream in(refs_path);
  if (!in) throw std::runtime_error("cannot read reference digests: " + refs_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string line_workload;
    std::uint64_t line_seed = 0;
    std::string label;
    std::string digest;
    if (!(fields >> line_workload >> line_seed >> label >> digest)) {
      throw std::runtime_error("malformed reference digest line: " + line);
    }
    if (line_workload == workload_ && line_seed == seed_) references_[label] = digest;
  }
}

void Checker::simulation(const std::string& label, const webcache::sim::Metrics& m,
                         const webcache::obs::Registry& registry,
                         std::uint64_t trace_length, bool digest,
                         const std::vector<std::pair<std::string, bool>>& assertions) {
  ++attempted_;
  std::vector<std::string> failures;
  const std::uint64_t outcomes = m.hits_browser + m.hits_local_proxy + m.hits_local_p2p +
                                 m.hits_remote_proxy + m.hits_remote_p2p + m.server_fetches;
  if (m.requests != trace_length) failures.push_back("sim.requests != trace length");
  if (outcomes != m.requests) failures.push_back("outcome counters do not sum to sim.requests");
  if (registry.counter_value("sim.requests") != m.requests) {
    failures.push_back("registry sim.requests disagrees with the metrics view");
  }
  for (const auto& [what, ok] : assertions) {
    if (!ok) failures.push_back(what);
  }
  if (digest) {
    const std::string d = outcome_digest(m);
    if (!record_path_.empty()) {
      if (first_seen_.emplace(label, d).second) {
        std::ofstream out(record_path_, std::ios::app);
        out << workload_ << ' ' << seed_ << ' ' << label << ' ' << d << '\n';
      }
    } else if (!references_.empty()) {
      const auto it = references_.find(label);
      if (it == references_.end()) {
        failures.push_back("no reference digest for this simulation");
      } else if (it->second != d) {
        failures.push_back("digest " + d + " != reference " + it->second);
      }
      ++compared_;
    } else {
      const auto [it, fresh] = first_seen_.emplace(label, d);
      if (!fresh && it->second != d) {
        failures.push_back("digest " + d + " differs from the first repetition's " +
                           it->second);
      }
    }
  }
  if (!failures.empty()) {
    ++failed_;
    for (const auto& f : failures) problems_.push_back(label + ": " + f);
  }
}

}  // namespace perfbench
