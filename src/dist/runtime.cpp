#include "dist/runtime.hpp"

#include "dist/reliable_link.hpp"
#include "graph/traversal.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <utility>

namespace mcds::dist {

namespace {

/// Sentinel type used to aggregate link-layer ack frames in the
/// in-flight breakdown (their Message::type is meaningless).
constexpr std::int32_t kAckType = -1;

/// Trace events appended to a RoundLimitError as the post-mortem tail.
constexpr std::size_t kTailEvents = 16;

std::string format_round_limit(
    const std::string& protocol, std::size_t rounds_run, std::size_t in_flight,
    const std::vector<NodeId>& pending,
    const std::vector<std::pair<std::int32_t, std::size_t>>& by_type,
    const std::string& trace_tail) {
  std::ostringstream os;
  os << "Runtime::run";
  if (!protocol.empty()) os << " [" << protocol << "]";
  os << ": round limit exceeded after " << rounds_run << " rounds; "
     << in_flight << " message(s) in flight";
  if (!by_type.empty()) {
    os << " (";
    for (std::size_t i = 0; i < by_type.size(); ++i) {
      if (i > 0) os << ", ";
      if (by_type[i].first == kAckType) {
        os << "link-ack";
      } else {
        os << "type " << by_type[i].first;
      }
      os << " x" << by_type[i].second;
    }
    os << ")";
  }
  os << "; non-quiescent nodes: [";
  constexpr std::size_t kShow = 16;
  for (std::size_t i = 0; i < pending.size() && i < kShow; ++i) {
    if (i > 0) os << ", ";
    os << pending[i];
  }
  if (pending.size() > kShow) {
    os << ", ... (+" << pending.size() - kShow << " more)";
  }
  os << "]";
  if (!trace_tail.empty()) os << "\n" << trace_tail;
  return os.str();
}

}  // namespace

std::size_t RunStats::of_type(std::int32_t type) const noexcept {
  for (const auto& [t, c] : by_type) {
    if (t == type) return c;
  }
  return 0;
}

RunStats& RunStats::operator+=(const RunStats& o) {
  rounds += o.rounds;
  messages += o.messages;
  critical_path += o.critical_path;
  if (!o.by_type.empty()) {
    for (const auto& [t, c] : o.by_type) {
      const auto it = std::lower_bound(
          by_type.begin(), by_type.end(), t,
          [](const auto& p, std::int32_t key) { return p.first < key; });
      if (it != by_type.end() && it->first == t) {
        it->second += c;
      } else {
        by_type.insert(it, {t, c});
      }
    }
  }
  per_round.insert(per_round.end(), o.per_round.begin(), o.per_round.end());
  return *this;
}

RoundLimitError::RoundLimitError(
    std::string protocol, std::size_t rounds_run, std::size_t in_flight,
    std::vector<NodeId> pending_nodes,
    std::vector<std::pair<std::int32_t, std::size_t>> in_flight_by_type,
    std::string trace_tail)
    : std::runtime_error(format_round_limit(protocol, rounds_run, in_flight,
                                            pending_nodes, in_flight_by_type,
                                            trace_tail)),
      protocol_(std::move(protocol)),
      rounds_(rounds_run),
      in_flight_(in_flight),
      pending_(std::move(pending_nodes)),
      by_type_(std::move(in_flight_by_type)) {}

void Runtime::InboxArena::reset(std::size_t n) {
  begin_.assign(n, 0);
  len_.assign(n, 0);
  cursor_.assign(n, 0);
  marked_.assign((n + 63) / 64, 0);
  buf_.clear();
  dests_.clear();
}

void Runtime::InboxArena::stage(const Bucket& due, graph::FrozenGraph csr) {
  for (const NodeId v : dests_) len_[v] = 0;  // last round's extents
  dests_.clear();
  const auto count = [this](NodeId to) {
    if (len_[to]++ == 0) marked_[to >> 6] |= std::uint64_t{1} << (to & 63);
  };
  const std::size_t entries = due.msgs.size();
  for (std::size_t i = 0; i < entries; ++i) {
    if (due.tos[i] == kEveryNeighbor) {
      for (const NodeId u : csr.neighbors(due.msgs[i].from)) count(u);
    } else {
      count(due.tos[i]);
    }
  }
  // Ascending destinations straight off the bitmap: O(n/64) per round.
  std::uint32_t off = 0;
  for (std::size_t w = 0; w < marked_.size(); ++w) {
    for (std::uint64_t bits = marked_[w]; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
      dests_.push_back(v);
      begin_[v] = off;
      cursor_[v] = off;
      off += len_[v];
    }
    marked_[w] = 0;
  }
  buf_.resize(off);
  // Stable scatter: per-destination order stays enqueue order, and a
  // record lands at its own position in every neighbor's inbox — the
  // order its per-copy routing would have produced.
  for (std::size_t i = 0; i < entries; ++i) {
    const Message& m = due.msgs[i];
    if (due.tos[i] == kEveryNeighbor) {
      for (const NodeId u : csr.neighbors(m.from)) buf_[cursor_[u]++] = m;
    } else {
      buf_[cursor_[due.tos[i]]++] = m;
    }
  }
}

Runtime::Runtime(const Graph& g, const FaultPlan& plan,
                 std::size_t round_offset)
    : g_(g),
      frozen_(g),
      plan_(plan),
      live_(g.num_nodes()),
      round_offset_(round_offset) {
  arena_.reset(g.num_nodes());
  queue_.emplace_back();
  faulty_ = !plan_.trivial();
  if (!faulty_) return;
  plan_.validate();
  std::stable_sort(
      plan_.schedule.begin(), plan_.schedule.end(),
      [](const CrashEvent& a, const CrashEvent& b) { return a.round < b.round; });
  std::stable_sort(plan_.partitions.begin(), plan_.partitions.end(),
                   [](const PartitionEvent& a, const PartitionEvent& b) {
                     return a.round < b.round;
                   });
  if (!plan_.link.clean() || !plan_.overrides.empty()) {
    model_.emplace(plan_, round_offset_);
  }
  up_.assign(g.num_nodes(), true);
  apply_events_through(round_offset_);
}

void Runtime::observe(const obs::Obs& obs, std::string label) {
  obs_ = obs;
  label_ = std::move(label);
}

void Runtime::send(NodeId from, NodeId to, Message m) {
  // O(log deg) binary search on the frozen CSR; out-of-range ids take
  // the checked Graph path, preserving its exception behavior.
  const bool edge = (from < g_.num_nodes() && to < g_.num_nodes())
                        ? frozen_.has_edge(from, to)
                        : g_.has_edge(from, to);
  if (!edge) {
    throw std::invalid_argument(
        "Runtime::send: nodes are not one-hop neighbors");
  }
  m.from = from;
  route(from, to, m);
}

void Runtime::broadcast(NodeId from, Message m) {
  m.from = from;
  // Fault-free and causally untraced, every copy takes the same path
  // into the same round: carry the broadcast as one record until then.
  if (!faulty_ && !causal_active_ && from < g_.num_nodes()) {
    if (frozen_.degree(from) == 0) return;
    enqueue(kEveryNeighbor, m, 0);
    return;
  }
  for (const NodeId to : g_.neighbors(from)) {
    route(from, to, m);
  }
}

void Runtime::route(NodeId from, NodeId to, const Message& m) {
  if (faulty_) {
    if (!up_[from] || !up_[to]) {
      ++fstats_.suppressed;
      return;
    }
    // Partition check precedes channel sampling and consumes no RNG
    // draws, so adding a partition to a plan leaves the fate sequence of
    // same-group traffic unchanged.
    if (!group_.empty() && group_[from] != group_[to]) {
      ++fstats_.partition_dropped;
      return;
    }
    if (model_) {
      delays_scratch_.clear();
      model_->sample(from, to, delays_scratch_);
      if (delays_scratch_.empty()) {
        ++fstats_.dropped;
        return;
      }
      if (delays_scratch_.size() > 1) {
        fstats_.duplicated += delays_scratch_.size() - 1;
      }
      for (const std::size_t d : delays_scratch_) {
        if (d > 0) ++fstats_.delayed;
        enqueue(to, m, d);
      }
      return;
    }
  }
  enqueue(to, m, 0);
}

Runtime::Bucket Runtime::take_spare() {
  if (spare_.empty()) return {};
  Bucket b = std::move(spare_.back());
  spare_.pop_back();
  return b;
}

void Runtime::recycle(Bucket&& b) {
  b.clear();  // capacity retained — the arena's recycling discipline
  spare_.push_back(std::move(b));
}

void Runtime::enqueue(NodeId to, const Message& m, std::size_t delay) {
  while (queue_.size() <= delay) queue_.push_back(take_spare());
  Bucket& bucket = queue_[delay];
  bucket.msgs.push_back(m);
  bucket.tos.push_back(to);
  if (causal_active_) {
    // Stamp per enqueued copy: a dropped message gets no span, each
    // duplicated copy gets its own, so a span is delivered at most once.
    bucket.msgs.back().span =
        obs_.causal->on_send(causal_trace_, ctx_, m.from, to, m.type,
                             round_offset_ + rounds_run_);
  }
  in_flight_ += copies(to, m);
}

void Runtime::discard_queued(const PartitionEvent* cut, NodeId crashed) {
  // Stable compaction over the flat buckets; `cut` non-null drops
  // cross-group traffic (group_ already updated), otherwise everything
  // addressed to the crashed node is lost. Only faulty runs get here,
  // and they route every copy: no bucket holds a broadcast record.
  for (Bucket& bucket : queue_) {
    const std::size_t size = bucket.msgs.size();
    std::size_t w = 0;
    std::size_t removed = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const bool drop = cut != nullptr
                            ? group_[bucket.msgs[i].from] != group_[bucket.tos[i]]
                            : bucket.tos[i] == crashed;
      if (drop) {
        ++removed;
        continue;
      }
      if (w != i) {
        bucket.msgs[w] = bucket.msgs[i];
        bucket.tos[w] = bucket.tos[i];
      }
      ++w;
    }
    if (removed == 0) continue;
    bucket.msgs.resize(w);
    bucket.tos.resize(w);
    in_flight_ -= removed;
    if (cut != nullptr) {
      fstats_.partition_dropped += removed;
    } else {
      fstats_.crash_discarded += removed;
    }
  }
}

void Runtime::apply_events_through(std::size_t global_round) {
  while (next_event_ < plan_.schedule.size() &&
         plan_.schedule[next_event_].round <= global_round) {
    const CrashEvent& e = plan_.schedule[next_event_++];
    if (e.node >= g_.num_nodes()) continue;
    if (up_[e.node] != e.up) live_ = e.up ? live_ + 1 : live_ - 1;
    up_[e.node] = e.up;
    if (e.up) continue;
    // Fail-stop: everything queued for the crashed node is lost.
    discard_queued(nullptr, e.node);
  }
  while (next_partition_ < plan_.partitions.size() &&
         plan_.partitions[next_partition_].round <= global_round) {
    apply_partition(plan_.partitions[next_partition_++]);
  }
}

void Runtime::apply_partition(const PartitionEvent& e) {
  // Partition transitions are rare, so interning per event is fine.
  if (auto* c = obs_.counter(e.heals() ? "fault.partition_heals"
                                       : "fault.partition_splits")) {
    c->add();
  }
  if (obs_.trace) {
    const std::string prefix = label_.empty() ? "runtime" : label_;
    obs_.trace->instant(
        obs_.trace->intern(prefix + (e.heals() ? ".partition_heal"
                                               : ".partition_split")),
        static_cast<std::int64_t>(e.groups.size()));
  }
  if (e.heals()) {
    group_.clear();
    return;
  }
  group_.assign(g_.num_nodes(),
                static_cast<std::uint32_t>(e.groups.size()));
  for (std::size_t gi = 0; gi < e.groups.size(); ++gi) {
    for (const NodeId v : e.groups[gi]) {
      if (v < g_.num_nodes()) group_[v] = static_cast<std::uint32_t>(gi);
    }
  }
  // Messages already in the air across the new cut go down with the
  // link, exactly as crash discard loses a dead node's queue.
  discard_queued(&e, graph::kNoNode);
}

std::vector<NodeId> Runtime::nodes_with_pending() const {
  std::vector<NodeId> out;
  for (const Bucket& bucket : queue_) {
    for (std::size_t i = 0; i < bucket.tos.size(); ++i) {
      if (bucket.tos[i] == kEveryNeighbor) {
        const auto row = frozen_.neighbors(bucket.msgs[i].from);
        out.insert(out.end(), row.begin(), row.end());
      } else {
        out.push_back(bucket.tos[i]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<std::int32_t, std::size_t>> Runtime::in_flight_by_type()
    const {
  std::map<std::int32_t, std::size_t> counts;
  for (const Bucket& bucket : queue_) {
    for (std::size_t i = 0; i < bucket.msgs.size(); ++i) {
      const Message& m = bucket.msgs[i];
      counts[m.link == kLinkAck ? kAckType : m.type] +=
          copies(bucket.tos[i], m);
    }
  }
  return {counts.begin(), counts.end()};
}

obs::CausalContext Runtime::deepest_context(
    std::span<const Message> inbox) const noexcept {
  // Inbox span ids ascend (enqueue order), so "strictly deeper wins"
  // keeps the smallest id among ties.
  obs::CausalContext best;
  for (const Message& m : inbox) {
    if (m.span == obs::kNoSpan) continue;
    const obs::CausalContext c = obs_.causal->context_of(m.span);
    if (c.depth > best.depth) best = c;
  }
  return best;
}

RunStats Runtime::run(Protocol& p, std::size_t max_rounds) {
  RunStats stats;
  const std::size_t n = g_.num_nodes();
  // Observability setup (all of it skipped on the null-sink path).
  obs::TraceRecorder* rec = obs_.trace;
  const bool metrics_on = obs_.metrics != nullptr;
  std::uint32_t span_name = 0;
  std::uint32_t inflight_name = 0;
  std::uint32_t delivered_name = 0;
  std::map<std::int32_t, std::size_t> by_type;       // delivered, cumulative
  std::map<std::int32_t, std::uint32_t> type_names;  // interned counter names
  obs::Histogram* h_inflight = nullptr;
  FaultStats fstats_before;
  const std::string prefix = label_.empty() ? "runtime" : label_;
  if (rec) {
    span_name = rec->intern(prefix);
    inflight_name = rec->intern(prefix + ".in_flight");
    delivered_name = rec->intern(prefix + ".delivered");
    rec->span_begin(span_name);
  }
  if (metrics_on) {
    h_inflight = &obs_.metrics->histogram(prefix + ".in_flight_per_round");
    fstats_before = fstats_;
  }
  obs::CausalTracer* causal = obs_.causal;
  if (causal) {
    causal_trace_ = causal->begin_trace(prefix);
    causal_active_ = true;
    ctx_ = {};
  }

  // A mail-driven protocol in a fault-free run steps only this round's
  // destinations; otherwise every live node steps.
  const bool mail_only = p.mail_driven() && !faulty_;
  std::size_t steps = 0;  // step() calls, counted only with metrics on

  for (NodeId v = 0; v < n; ++v) {
    if (is_up(v)) p.start(v);
  }

  while (in_flight_ > 0 || !p.idle()) {
    if (stats.rounds >= max_rounds) {
      auto breakdown = in_flight_by_type();
      if (rec) rec->span_end(span_name);
      causal_active_ = false;
      // Post-mortem: what the runtime was doing when the guard tripped.
      throw RoundLimitError(label_, stats.rounds, in_flight_,
                            nodes_with_pending(), std::move(breakdown),
                            rec ? obs::format_trace_tail(*rec, kTailEvents)
                                : std::string{});
    }
    ++stats.rounds;
    ++rounds_run_;
    if (faulty_) apply_events_through(round_offset_ + rounds_run_);
    // Stage this round's inboxes (the head delay bucket) into the
    // recycled arena; sends during step() land next round or later.
    {
      Bucket due = std::move(queue_.front());
      queue_.pop_front();
      if (queue_.empty()) queue_.push_back(take_spare());
      arena_.stage(due, frozen_);
      recycle(std::move(due));
    }
    const std::size_t delivered = arena_.all().size();
    in_flight_ -= delivered;
    stats.messages += delivered;
    const std::span<const NodeId> dests = arena_.destinations();
    if (metrics_on) steps += mail_only ? dests.size() : live_;
    if (metrics_on || rec) {
      // Per-type delivered counts; under the ring-buffer trace each
      // active type becomes a Perfetto counter track.
      for (const Message& m : arena_.all()) ++by_type[m.type];
      if (metrics_on) {
        stats.per_round.push_back(delivered);
        h_inflight->record(static_cast<double>(in_flight_));
      }
      if (rec) {
        rec->counter(delivered_name,
                     static_cast<std::int64_t>(delivered));
        rec->counter(inflight_name, static_cast<std::int64_t>(in_flight_));
        for (const auto& [t, c] : by_type) {
          auto it = type_names.find(t);
          if (it == type_names.end()) {
            it = type_names
                     .emplace(t, rec->intern(prefix + ".msg.type" +
                                             std::to_string(t)))
                     .first;
          }
          rec->counter(it->second, static_cast<std::int64_t>(c));
        }
      }
    }
    p.on_round_begin();
    // The round's step list: the destinations, or every node id.
    const std::size_t count = mail_only ? dests.size() : n;
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = mail_only ? dests[i] : static_cast<NodeId>(i);
      if (faulty_ && !up_[v]) continue;
      const std::span<const Message> inbox = arena_.inbox(v);
      if (trace_) {
        for (const Message& m : inbox) {
          trace_->push_back(TraceEvent{round_offset_ + rounds_run_, m.from, v,
                                       m.type, m.a, m.b, m.link, m.seq});
        }
      }
      if (causal) {
        // Close every delivered span and step under the deepest one —
        // the whole inbox happened-before anything this step sends.
        const std::uint64_t round = round_offset_ + rounds_run_;
        for (const Message& m : inbox) {
          if (m.span != obs::kNoSpan) causal->on_deliver(m.span, round);
        }
        ctx_ = deepest_context(inbox);
      }
      p.step(v, inbox);
    }
    // Sends between steps (the next round's on_round_begin) root fresh
    // chains unless a link layer restores a captured context.
    ctx_ = {};
    p.on_round_end();
  }

  if (causal) {
    stats.critical_path = causal->max_depth(causal_trace_);
    causal_active_ = false;
  }
  if (metrics_on) {
    auto& reg = *obs_.metrics;
    reg.counter(prefix + ".rounds").add(stats.rounds);
    reg.counter(prefix + ".messages").add(stats.messages);
    reg.counter(prefix + ".steps").add(steps);
    if (causal) {
      reg.counter(prefix + ".critical_path").add(stats.critical_path);
    }
    stats.by_type.reserve(by_type.size());
    for (const auto& [t, c] : by_type) {
      reg.counter(prefix + ".msg.type" + std::to_string(t)).add(c);
      stats.by_type.emplace_back(t, c);
    }
    reg.counter("fault.dropped").add(fstats_.dropped - fstats_before.dropped);
    reg.counter("fault.duplicated")
        .add(fstats_.duplicated - fstats_before.duplicated);
    reg.counter("fault.delayed").add(fstats_.delayed - fstats_before.delayed);
    reg.counter("fault.crash_discarded")
        .add(fstats_.crash_discarded - fstats_before.crash_discarded);
    reg.counter("fault.suppressed")
        .add(fstats_.suppressed - fstats_before.suppressed);
    reg.counter("fault.partition_dropped")
        .add(fstats_.partition_dropped - fstats_before.partition_dropped);
  }
  if (rec) rec->span_end(span_name);
  return stats;
}

}  // namespace mcds::dist
