#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"

/// \file common.hpp
/// Shared pieces of the end-to-end benchmark: options, seeded inputs,
/// statistics, the in-memory span recorder and the report every workload
/// fills in. See NOTES.md for what each workload measures and why.

namespace mcds::perfbench {

using graph::NodeId;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;  ///< where a traced run writes its spans
};

/// Set-up repetitions: an untraced run sets up \p untraced times and
/// reports the median (set-up time is an end-to-end metric); a traced run
/// reports no set-up time and sets up once.
[[nodiscard]] inline int setup_reps(const Options& o, int untraced = 3) {
  return o.trace ? 1 : untraced;
}

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< input sizes and provenance lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string error;  ///< first failure, for the log

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run then reports correct = false.
  void fail(const std::string& why) {
    ++failed;
    if (correct) error = why;
    correct = false;
  }
};

// ---- time ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- statistics ---------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of \p v; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double max_of(const std::vector<double>& v);

/// Host CPU time stolen from this machine (all CPUs, since boot) and total
/// CPU time, in clock ticks, from /proc/stat; {0, 0} where unavailable.
/// The stolen share during a run says how contended the host was.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> cpu_steal_ticks();
/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Minor page faults of this process (all threads) so far.
[[nodiscard]] std::uint64_t minor_faults();

/// Adds the end-to-end latency metrics of \p ms: the median always, p90
/// from 100 samples and p99 from 1,000 (each needs ten samples beyond
/// it). Prints the sample count beside them.
void add_latency_metrics(Report& r, const std::vector<double>& ms);

// ---- inputs -------------------------------------------------------------

/// The giant component of a uniform field of \p n nodes in the square of
/// side 0.55·√n (mean degree ≈ 10.4, supercritical). Points keep their
/// draw order; ids are ranks among the kept points.
struct Field {
  std::vector<geom::Vec2> points;
  std::size_t drawn = 0;   ///< nodes drawn before the giant was kept
  std::size_t edges = 0;   ///< edges of the giant component's UDG
  double side = 0.0;
};

/// Side of the square a field of \p n nodes is drawn in.
[[nodiscard]] double field_side(std::size_t n);

/// Draws the field with stream \p stream of \p seed. Never calls
/// udg::generate_largest_component_instance (see NOTES.md).
[[nodiscard]] Field make_field(std::size_t n, std::uint64_t seed,
                               std::uint64_t stream);

/// "label: N nodes (of M drawn), E edges" for the run log.
[[nodiscard]] std::string describe(const std::string& label, const Field& f);

/// The churn event stream of `mcds_cli dynamic`: pick a node uniformly;
/// revive a dead one at a uniform position; crash an alive one with
/// p = 0.1, else move it by at most 0.5 per axis (clamped to the field).
/// It keeps its own model of positions and liveness, so one stream can
/// drive several engines identically.
class ChurnStream {
 public:
  enum class Kind : std::uint8_t { kMove, kErase, kRevive };
  struct Event {
    Kind kind = Kind::kMove;
    NodeId node = 0;
    geom::Vec2 pos;
  };

  ChurnStream(const Field& field, std::uint64_t seed, std::uint64_t stream);
  Event next();

 private:
  std::vector<geom::Vec2> pos_;
  std::vector<std::uint8_t> alive_;
  double side_ = 0.0;
  sim::Rng rng_;
};

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest on one thread;
/// a span's parent is the innermost span open when it began. Self time
/// is a span's duration minus the time its direct children cover.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  /// Self times, in ms, of every span named \p name, in record order.
  [[nodiscard]] std::vector<double> self_ms(std::string_view name) const;
  /// Full durations, in ms, of every span named \p name.
  [[nodiscard]] std::vector<double> total_ms(std::string_view name) const;
  /// Writes every span as a tab-separated line (op, index, parent, name,
  /// begin_ns, end_ns). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  Clock::time_point epoch_ = Clock::now();
};

// ---- workloads ----------------------------------------------------------

Report run_solve(const Options& o);
Report run_churn(const Options& o);
Report run_serve(const Options& o);
Report run_dist(const Options& o);

}  // namespace mcds::perfbench
