#include "obs/metrics.hpp"

#include <ostream>

namespace mcds::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  // try_emplace: the atomic counter is not copyable.
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

namespace detail {

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

}  // namespace detail

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"";
    detail::write_escaped(os, name);
    os << "\": " << c.value();
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"";
    detail::write_escaped(os, name);
    os << "\": " << g.value();
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    const sim::Accumulator& a = h.acc();
    os << "\n    \"";
    detail::write_escaped(os, name);
    os << "\": {\"count\": " << a.count() << ", \"mean\": " << a.mean()
       << ", \"stdev\": " << a.stdev() << ", \"min\": " << a.min()
       << ", \"max\": " << a.max() << ", \"p50\": " << a.p50()
       << ", \"p95\": " << a.p95() << ", \"p99\": " << a.p99() << "}";
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace mcds::obs
