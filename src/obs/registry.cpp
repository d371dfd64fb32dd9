#include "obs/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>

namespace webcache::obs {

namespace {

/// JSON string escaping for instrument names (ASCII identifiers in practice;
/// quotes/backslashes/control characters handled for safety).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Names of a table sorted lexicographically — the export order of the JSON
/// maps and the CSV rows (stable regardless of registration order).
std::vector<std::string> sorted(const std::vector<std::string>& names) {
  std::vector<std::string> out = names;
  std::sort(out.begin(), out.end());
  return out;
}

void put_indent(std::ostream& out, int indent) {
  for (int i = 0; i < indent; ++i) out.put(' ');
}

}  // namespace

std::string format_double(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec == std::errc{}) return std::string(buf, ptr);
  std::snprintf(buf, sizeof buf, "%.17g", value);  // unreachable fallback
  return buf;
}

Counter& Registry::counter(std::string_view name) {
  return counters_.find_or_create(name, [] { return Counter{}; });
}

Gauge& Registry::gauge(std::string_view name) {
  return gauges_.find_or_create(name, [] { return Gauge{}; });
}

RunningStat& Registry::stat(std::string_view name) {
  return stats_.find_or_create(name, [] { return RunningStat{}; });
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi,
                               std::size_t buckets) {
  return histograms_.find_or_create(name, [&] { return Histogram(lo, hi, buckets); });
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const Counter* c = counters_.find(name);
  return c == nullptr ? 0 : c->value();
}

double Registry::gauge_value(std::string_view name) const {
  const Gauge* g = gauges_.find(name);
  return g == nullptr ? 0.0 : g->value();
}

const RunningStat* Registry::find_stat(std::string_view name) const {
  return stats_.find(name);
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  return histograms_.find(name);
}

void Registry::take_snapshot() {
  Snapshot snap;
  snap.at = ticks_;
  snap.counters.reserve(counters_.store.size());
  for (const Counter& c : counters_.store) snap.counters.push_back(c.value());
  snap.gauges.reserve(gauges_.store.size());
  for (const Gauge& g : gauges_.store) snap.gauges.push_back(g.value());
  snapshots_.push_back(std::move(snap));
}

void Registry::enable_tracing(std::size_t capacity) {
  trace_capacity_ = capacity;
  trace_ring_.clear();
  trace_ring_.reserve(std::min<std::size_t>(capacity, 1u << 16));
  trace_next_ = 0;
}

std::vector<TraceEvent> Registry::trace_events() const {
  std::vector<TraceEvent> out;
  out.reserve(trace_ring_.size());
  if (trace_next_ <= trace_ring_.size()) {  // ring never wrapped
    out = trace_ring_;
  } else {
    const std::size_t head = static_cast<std::size_t>(trace_next_ % trace_capacity_);
    out.insert(out.end(), trace_ring_.begin() + static_cast<std::ptrdiff_t>(head),
               trace_ring_.end());
    out.insert(out.end(), trace_ring_.begin(),
               trace_ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

std::uint64_t Registry::trace_dropped() const {
  return trace_next_ <= trace_ring_.size() ? 0 : trace_next_ - trace_ring_.size();
}

void Registry::write_json_body(std::ostream& out, int indent) const {
  const auto key = [&](std::string_view name) {
    put_indent(out, indent + 2);
    out << '"' << json_escape(name) << "\": ";
  };

  put_indent(out, indent);
  out << "{\n";

  key("counters");
  out << "{";
  bool first = true;
  for (const auto& name : sorted(counters_.names)) {
    out << (first ? "" : ", ") << '"' << json_escape(name)
        << "\": " << counters_.find(name)->value();
    first = false;
  }
  out << "},\n";

  key("gauges");
  out << "{";
  first = true;
  for (const auto& name : sorted(gauges_.names)) {
    out << (first ? "" : ", ") << '"' << json_escape(name)
        << "\": " << format_double(gauges_.find(name)->value());
    first = false;
  }
  out << "},\n";

  key("stats");
  out << "{";
  first = true;
  for (const auto& name : sorted(stats_.names)) {
    const RunningStat& s = *stats_.find(name);
    out << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"count\": " << s.count()
        << ", \"mean\": " << format_double(s.mean()) << ", \"min\": " << format_double(s.min())
        << ", \"max\": " << format_double(s.max()) << ", \"sum\": " << format_double(s.sum())
        << "}";
    first = false;
  }
  out << "},\n";

  key("histograms");
  out << "{";
  first = true;
  for (const auto& name : sorted(histograms_.names)) {
    const Histogram& h = *histograms_.find(name);
    out << (first ? "" : ", ") << '"' << json_escape(name)
        << "\": {\"lo\": " << format_double(h.lo()) << ", \"hi\": " << format_double(h.hi())
        << ", \"total\": " << h.total() << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets(); ++i) {
      out << (i ? ", " : "") << h.bucket_count(i);
    }
    out << "]}";
    first = false;
  }
  out << "},\n";

  // Snapshots keep registration order so rows align with their columns.
  key("snapshots");
  out << "{\"interval\": " << snapshot_interval_ << ", \"columns\": [";
  for (std::size_t i = 0; i < counters_.names.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(counters_.names[i]) << '"';
  }
  out << "], \"gauge_columns\": [";
  for (std::size_t i = 0; i < gauges_.names.size(); ++i) {
    out << (i ? ", " : "") << '"' << json_escape(gauges_.names[i]) << '"';
  }
  out << "],\n";
  put_indent(out, indent + 2);
  out << "\"rows\": [";
  for (std::size_t r = 0; r < snapshots_.size(); ++r) {
    const Snapshot& snap = snapshots_[r];
    if (r != 0) {
      out << ",\n";
      put_indent(out, indent + 4);
    }
    out << "[" << snap.at;
    // Instruments registered after a snapshot was taken were at their initial
    // value (0) then; pad so every row has one entry per column.
    for (std::size_t i = 0; i < counters_.names.size(); ++i) {
      out << ", " << (i < snap.counters.size() ? snap.counters[i] : 0);
    }
    for (std::size_t i = 0; i < gauges_.names.size(); ++i) {
      out << ", " << format_double(i < snap.gauges.size() ? snap.gauges[i] : 0.0);
    }
    out << "]";
  }
  out << "]}\n";

  put_indent(out, indent);
  out << "}";
}

void Registry::write_json(std::ostream& out, std::string_view name) const {
  out << "{\n  \"schema\": \"" << kSchemaVersion << "\",\n  \"name\": \""
      << json_escape(name) << "\",\n  \"metrics\":\n";
  write_json_body(out, 2);
  out << "\n}\n";
}

void Registry::write_csv(std::ostream& out) const {
  out << "kind,name,value\n";
  for (const auto& name : sorted(counters_.names)) {
    out << "counter," << name << ',' << counters_.find(name)->value() << '\n';
  }
  for (const auto& name : sorted(gauges_.names)) {
    out << "gauge," << name << ',' << format_double(gauges_.find(name)->value()) << '\n';
  }
  for (const auto& name : sorted(stats_.names)) {
    const RunningStat& s = *stats_.find(name);
    out << "stat," << name << ".count," << s.count() << '\n';
    out << "stat," << name << ".mean," << format_double(s.mean()) << '\n';
    out << "stat," << name << ".min," << format_double(s.min()) << '\n';
    out << "stat," << name << ".max," << format_double(s.max()) << '\n';
    out << "stat," << name << ".sum," << format_double(s.sum()) << '\n';
  }
  for (const auto& name : sorted(histograms_.names)) {
    const Histogram& h = *histograms_.find(name);
    out << "histogram," << name << ".lo," << format_double(h.lo()) << '\n';
    out << "histogram," << name << ".hi," << format_double(h.hi()) << '\n';
    for (std::size_t i = 0; i < h.buckets(); ++i) {
      out << "histogram," << name << ".bucket" << i << ',' << h.bucket_count(i) << '\n';
    }
  }
  out.flush();
}

void Registry::write_snapshots_csv(std::ostream& out) const {
  out << "at";
  for (const auto& name : counters_.names) out << ',' << name;
  for (const auto& name : gauges_.names) out << ',' << name;
  out << '\n';
  for (const Snapshot& snap : snapshots_) {
    out << snap.at;
    for (std::size_t i = 0; i < counters_.names.size(); ++i) {
      out << ',' << (i < snap.counters.size() ? snap.counters[i] : 0);
    }
    for (std::size_t i = 0; i < gauges_.names.size(); ++i) {
      out << ',' << format_double(i < snap.gauges.size() ? snap.gauges[i] : 0.0);
    }
    out << '\n';
  }
  out.flush();
}

void Registry::write_trace_csv(std::ostream& out) const {
  out << "seq,time,code,value,aux\n";
  const auto events = trace_events();
  const std::uint64_t base = trace_dropped();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out << base + i << ',' << e.time << ',' << e.code << ',' << format_double(e.value)
        << ',' << format_double(e.aux) << '\n';
  }
  out.flush();
}

Registry& ensure_registry(Registry* registry, std::unique_ptr<Registry>& owned) {
  if (registry != nullptr) return *registry;
  if (!owned) owned = std::make_unique<Registry>();
  return *owned;
}

}  // namespace webcache::obs
