#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "graph/traversal.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"

namespace mcds::perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t field[8] = {};
  if (!(in >> label) || label != "cpu") return {0, 0};
  for (auto& f : field) {
    if (!(in >> f)) return {0, 0};
  }
  return {field[7], std::accumulate(field, field + 8, std::uint64_t{0})};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

void add_latency_metrics(Report& r, const std::vector<double>& ms) {
  r.add("op_p50_ms", median(ms), "ms");
  if (ms.size() >= 100) r.add("op_p90_ms", quantile(ms, 0.90), "ms");
  if (ms.size() >= 1000) r.add("op_p99_ms", quantile(ms, 0.99), "ms");
  r.add("op_samples", static_cast<double>(ms.size()), "count");
}

double field_side(std::size_t n) {
  return 0.55 * std::sqrt(static_cast<double>(n));
}

Field make_field(std::size_t n, std::uint64_t seed, std::uint64_t stream) {
  Field f;
  f.side = field_side(n);
  f.drawn = n;
  sim::Rng rng = sim::Rng::child(seed, stream);
  std::vector<geom::Vec2> all = udg::deploy_uniform_square(n, f.side, rng);
  const graph::Graph g = udg::build_udg(all, 1.0);
  const auto [label, count] = graph::connected_components(g);
  std::vector<std::size_t> size(count, 0);
  for (const auto l : label) ++size[l];
  const auto giant = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  f.points.reserve(size[giant]);
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (label[v] != giant) continue;
    f.points.push_back(all[v]);
    degree_sum += g.degree(v);
  }
  f.edges = degree_sum / 2;
  return f;
}

std::string describe(const std::string& label, const Field& f) {
  std::ostringstream os;
  os << label << ": " << f.points.size() << " nodes (giant of " << f.drawn
     << " drawn at side " << f.side << "), " << f.edges << " edges";
  return os.str();
}

ChurnStream::ChurnStream(const Field& field, std::uint64_t seed,
                         std::uint64_t stream)
    : pos_(field.points),
      alive_(field.points.size(), 1),
      side_(field.side),
      rng_(sim::Rng::child(seed, stream)) {}

ChurnStream::Event ChurnStream::next() {
  constexpr double kCrash = 0.1;
  constexpr double kSpeed = 0.5;
  const auto clamp = [this](double x) { return std::clamp(x, 0.0, side_); };
  Event e;
  e.node = static_cast<NodeId>(rng_.uniform_int(pos_.size()));
  const bool was_alive = alive_[e.node] != 0;
  const bool crashes = was_alive && rng_.uniform01() < kCrash;
  const geom::Vec2 here = pos_[e.node];
  e.pos = was_alive
              ? geom::Vec2{clamp(here.x + rng_.uniform(-kSpeed, kSpeed)),
                           clamp(here.y + rng_.uniform(-kSpeed, kSpeed))}
              : geom::Vec2{rng_.uniform(0.0, side_), rng_.uniform(0.0, side_)};
  if (!was_alive) {
    e.kind = Kind::kRevive;
    alive_[e.node] = 1;
    pos_[e.node] = e.pos;
  } else if (crashes) {
    e.kind = Kind::kErase;
    alive_[e.node] = 0;
  } else {
    e.kind = Kind::kMove;
    pos_[e.node] = e.pos;
  }
  return e;
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t op)
    : t_(t), index_(t.spans_.size()) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t.epoch_)
                   .count();
  t.spans_.push_back(s);
  t.open_.push_back(static_cast<std::int32_t>(index_));
}

Tracer::Scope::~Scope() {
  t_.spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           t_.epoch_)
          .count();
  t_.open_.pop_back();
}

std::vector<double> Tracer::self_ms(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].begin_ns -
                                      child_ns[i]) *
                  1e-6);
  }
  return out;
}

std::vector<double> Tracer::total_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns) * 1e-6);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "op\tspan\tparent\tname\tbegin_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.begin_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace mcds::perfbench
