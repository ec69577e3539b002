#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "sim/stats.hpp"

/// \file metrics.hpp
/// A registry of named counters, gauges and histograms. Components
/// resolve the metrics they update once, at construction time, and keep
/// raw pointers — the registry's node-based storage guarantees stable
/// addresses for its lifetime, so the hot-path cost of an update is one
/// null check plus one add. Export is a single sorted JSON object
/// (deterministic key order), which the CLI's --metrics flag and the
/// bench harnesses write to disk.

namespace mcds::obs {

/// Monotone event counter. Relaxed-atomic because a resolved counter can
/// have writers on several threads with no lock in common: the solve
/// server's `serve.checkpoints` is added by its checkpointer thread and
/// by every caller of Server::checkpoint_now(). Addition is commutative,
/// so the final value does not depend on the interleaving. Every other
/// counter has one writer at a time (the distributed runtime steps every
/// round on the calling thread; the server's other counters update
/// under its locks) and pays one uncontended atomic add.
class Counter {
 public:
  void add(std::uint64_t d = 1) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Streaming distribution: count/min/max/mean/stdev plus P² tail
/// quantiles (p50/p95/p99), all O(1) space per histogram.
class Histogram {
 public:
  void record(double x) noexcept { acc_.add(x); }
  [[nodiscard]] const sim::Accumulator& acc() const noexcept { return acc_; }

 private:
  sim::Accumulator acc_;
};

/// Create-or-get registry. Returned references stay valid for the
/// registry's lifetime (node-based map storage).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// One JSON object with "counters", "gauges" and "histograms" keys,
  /// each sorted by metric name.
  void write_json(std::ostream& os) const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

namespace detail {

/// Writes \p s as the body of a JSON string: quote and backslash are
/// escaped, control characters become spaces. Names are library-chosen
/// identifiers, but a hostile one can never corrupt the output. Shared
/// by the registry JSON, the trace exports and the JSONL snapshots.
void write_escaped(std::ostream& os, std::string_view s);

}  // namespace detail

}  // namespace mcds::obs
