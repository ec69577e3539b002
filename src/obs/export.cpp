#include "obs/export.hpp"

#include <cctype>
#include <ctime>
#include <ostream>
#include <string>

namespace mcds::obs {

namespace {

/// Prometheus metric-name charset is [a-zA-Z_:][a-zA-Z0-9_:]*; the
/// registry's dotted names ("runtime.in_flight") map dots (and anything
/// else) to underscores under a library prefix.
std::string prom_name(const std::string& name) {
  std::string out = "mcds_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) || c == '_' || c == ':' ? c : '_');
  }
  return out;
}

}  // namespace

void export_prometheus(const MetricsRegistry& reg, std::ostream& os) {
  for (const auto& [name, c] : reg.counters()) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << "_total counter\n"
       << p << "_total " << c.value() << "\n";
  }
  for (const auto& [name, g] : reg.gauges()) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << g.value() << "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string p = prom_name(name);
    const sim::Accumulator& a = h.acc();
    os << "# TYPE " << p << " summary\n"
       << p << "{quantile=\"0.5\"} " << a.p50() << "\n"
       << p << "{quantile=\"0.95\"} " << a.p95() << "\n"
       << p << "{quantile=\"0.99\"} " << a.p99() << "\n"
       << p << "_sum " << a.mean() * static_cast<double>(a.count()) << "\n"
       << p << "_count " << a.count() << "\n";
  }
}

SnapshotSink::SnapshotSink(std::ostream& os, std::size_t every,
                           bool stamp_wall_time)
    : os_(os), every_(every), stamp_wall_time_(stamp_wall_time) {}

void SnapshotSink::tick(const MetricsRegistry& reg) {
  ++events_;
  if (every_ != 0 && events_ % every_ == 0) snapshot(reg);
}

void SnapshotSink::snapshot(const MetricsRegistry& reg) {
  os_ << "{\"seq\":" << seq_++ << ",\"events\":" << events_;
  if (stamp_wall_time_) {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    os_ << ",\"time\":\"" << buf << "\"";
  }
  os_ << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    if (!first) os_ << ",";
    first = false;
    os_ << "\"";
    detail::write_escaped(os_, name);
    os_ << "\":" << c.value();
  }
  os_ << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    if (!first) os_ << ",";
    first = false;
    os_ << "\"";
    detail::write_escaped(os_, name);
    os_ << "\":" << g.value();
  }
  os_ << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (!first) os_ << ",";
    first = false;
    const sim::Accumulator& a = h.acc();
    os_ << "\"";
    detail::write_escaped(os_, name);
    os_ << "\":{\"count\":" << a.count() << ",\"mean\":" << a.mean()
        << ",\"p50\":" << a.p50() << ",\"p95\":" << a.p95()
        << ",\"p99\":" << a.p99() << "}";
  }
  os_ << "}}\n";
}

}  // namespace mcds::obs
