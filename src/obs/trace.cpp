#include "obs/trace.hpp"

#include <ostream>

#include "obs/metrics.hpp"

namespace mcds::obs {

TraceRecorder::TraceRecorder(std::size_t capacity, ClockMode clock)
    : clock_(clock), epoch_(std::chrono::steady_clock::now()) {
  ring_.resize(capacity > 0 ? capacity : 1);
}

std::uint32_t TraceRecorder::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

void TraceRecorder::set_track_name(std::uint32_t tid, std::string_view name) {
  track_names_.insert_or_assign(tid, std::string(name));
}

std::uint64_t TraceRecorder::now() noexcept {
  if (clock_ == ClockMode::kLogical) return ++seq_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::push(const TraceRecord& r) noexcept {
  ring_[head_] = r;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;
  }
}

void TraceRecorder::span_begin(std::uint32_t name, std::uint32_t tid) noexcept {
  push({RecordKind::kSpanBegin, name, tid, now(), 0});
}

void TraceRecorder::span_end(std::uint32_t name, std::uint32_t tid) noexcept {
  push({RecordKind::kSpanEnd, name, tid, now(), 0});
}

void TraceRecorder::instant(std::uint32_t name, std::int64_t value,
                            std::uint32_t tid) noexcept {
  push({RecordKind::kInstant, name, tid, now(), value});
}

void TraceRecorder::counter(std::uint32_t name, std::int64_t value,
                            std::uint32_t tid) noexcept {
  push({RecordKind::kCounter, name, tid, now(), value});
}

std::vector<TraceRecord> TraceRecorder::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(count_);
  const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

const char* kind_tag(RecordKind k) {
  switch (k) {
    case RecordKind::kSpanBegin:
      return "B";
    case RecordKind::kSpanEnd:
      return "E";
    case RecordKind::kInstant:
      return "i";
    case RecordKind::kCounter:
      return "C";
  }
  return "?";
}

}  // namespace

void write_jsonl(const TraceRecorder& tr, std::ostream& os) {
  for (const TraceRecord& r : tr.snapshot()) {
    os << "{\"ph\":\"" << kind_tag(r.kind) << "\",\"name\":\"";
    detail::write_escaped(os, tr.name(r.name));
    os << "\",\"ts\":" << r.ts << ",\"tid\":" << r.tid;
    if (r.kind == RecordKind::kCounter || r.kind == RecordKind::kInstant) {
      os << ",\"value\":" << r.value;
    }
    os << "}\n";
  }
}

void write_chrome_trace(const TraceRecorder& tr, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  // Metadata first: Perfetto applies process/thread labels to every
  // later event regardless of order, but leading with them keeps the
  // file self-describing when read as plain text.
  os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"name\":\"mcds\"}}";
  first = false;
  for (const auto& [tid, label] : tr.track_names()) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << tid << ",\"args\":{\"name\":\"";
    detail::write_escaped(os, label);
    os << "\"}}";
  }
  for (const TraceRecord& r : tr.snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    detail::write_escaped(os, tr.name(r.name));
    os << "\",\"ph\":\"" << kind_tag(r.kind) << "\",\"pid\":0,\"tid\":"
       << r.tid << ",\"ts\":" << r.ts;
    if (r.kind == RecordKind::kInstant) {
      os << ",\"s\":\"t\",\"args\":{\"value\":" << r.value << "}";
    } else if (r.kind == RecordKind::kCounter) {
      os << ",\"args\":{\"value\":" << r.value << "}";
    }
    os << "}";
  }
  // displayTimeUnit keeps Perfetto from collapsing logical-tick spans.
  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\""
     << (tr.clock() == ClockMode::kLogical ? "logical" : "wall_ns")
     << "\",\"dropped\":" << tr.dropped() << "}}\n";
}

std::string format_trace_tail(const TraceRecorder& tr, std::size_t n) {
  const std::vector<TraceRecord> records = tr.snapshot();
  if (records.empty() || n == 0) return {};
  const std::size_t start = records.size() > n ? records.size() - n : 0;
  std::string out = "last trace events:";
  for (std::size_t i = start; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    // Appends, not "literal" + std::string&& chains: at -O3 those trip
    // GCC 12's -Wrestrict false positive.
    out += "\n  ts=";
    out += std::to_string(r.ts);
    out += ' ';
    out += kind_tag(r.kind);
    out += ' ';
    out += tr.name(r.name);
    if (r.kind == RecordKind::kCounter || r.kind == RecordKind::kInstant) {
      out += '=';
      out += std::to_string(r.value);
    }
    if (r.tid != 0) {
      out += " tid=";
      out += std::to_string(r.tid);
    }
  }
  return out;
}

}  // namespace mcds::obs
