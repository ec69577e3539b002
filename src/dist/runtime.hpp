#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "graph/graph.hpp"
#include "obs/causal.hpp"
#include "obs/obs.hpp"

/// \file runtime.hpp
/// A synchronous round-based message-passing runtime over a fixed
/// communication topology — the execution model in which the paper's
/// distributed algorithms are stated (nodes exchange messages with
/// one-hop neighbors; a round delivers everything sent in the previous
/// round). The runtime counts rounds and messages so the cost benches
/// (experiment E11) can report protocol overheads.
///
/// Beyond the ideal model, the runtime can execute under a declarative
/// FaultPlan (fault.hpp): per-link message drop/duplication/delay, a
/// fail-stop crash schedule and scheduled network partitions, all
/// consulted at delivery time. With the default (trivial) plan the
/// execution is bit-identical to the ideal fault-free model.
///
/// Work in proportion to the mail: in a fault-free run, a protocol that
/// declares itself mail_driven() is stepped only at the nodes with mail,
/// and a broadcast travels as one record (sender + message) until the
/// round that delivers it fans it out over the sender's CSR row. Both
/// are byte-identical to stepping every node and routing every copy.
///
/// Every round runs on the thread that called run(): the nodes step in
/// ascending id and each send is routed as it is made, so channel draws,
/// causal span ids and trace events follow one fixed order. Most of a
/// round is inbox staging rather than stepping, and a loop that sharded
/// the steps over a thread pool measured slower than this one at every
/// size (DESIGN §13).

namespace mcds::dist {

using graph::Graph;
using graph::NodeId;

/// A protocol message. Protocols define their own meaning for `type`,
/// `a` and `b`; `from` is stamped by the runtime. `link` and `seq` are
/// reserved for link-layer wrappers (ReliableLink) and stay zero on raw
/// traffic. `span` is the causal trace context the runtime stamps at
/// send time when a CausalTracer is attached (0 = untraced); the span
/// id resolves to the full (trace, parent span) coordinates in the
/// tracer's table, so the envelope carries one word, not two.
struct Message {
  NodeId from = 0;
  std::int32_t type = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int32_t link = 0;   ///< link-layer tag (0 = raw payload)
  std::uint32_t seq = 0;   ///< link-layer sequence number
  obs::SpanId span = obs::kNoSpan;  ///< causal span id (0 = untraced)
};

/// Cost accounting for one protocol execution. Beyond the paper's
/// two-field round/message model, a run executed with metrics enabled
/// (RunConfig::obs) also aggregates a per-Message::type and a per-round
/// breakdown from the registry; both stay empty — at zero cost — on the
/// uninstrumented path.
struct RunStats {
  std::size_t rounds = 0;    ///< synchronous rounds executed
  std::size_t messages = 0;  ///< point-to-point messages delivered
  /// Longest send→deliver→send chain (messages) of this execution — the
  /// causal lower bound on convergence, independent of round batching.
  /// Populated only when the runtime ran with a CausalTracer attached;
  /// += sums (consecutive phases are barrier-synchronized, so the
  /// construction-wide bound is the sum of the per-phase bounds).
  std::size_t critical_path = 0;
  /// Delivered messages by Message::type, ascending type. Populated only
  /// when the runtime ran with metrics enabled; += merges by type.
  std::vector<std::pair<std::int32_t, std::size_t>> by_type;
  /// Messages delivered in each executed round. Populated only with
  /// metrics enabled; += concatenates (phases execute consecutively on
  /// one timeline).
  std::vector<std::size_t> per_round;

  /// Delivered count of \p type (0 when absent or not recorded).
  [[nodiscard]] std::size_t of_type(std::int32_t type) const noexcept;

  RunStats& operator+=(const RunStats& o);
};

/// Thrown by Runtime::run when the round guard trips. Carries the
/// diagnostic state — rounds executed, messages still in flight, and
/// the non-quiescent nodes (those with queued traffic) — all of which
/// is also formatted into what().
class RoundLimitError : public std::runtime_error {
 public:
  /// \p trace_tail (optional) is a formatted post-mortem of the last
  /// trace events before the limit tripped (obs::format_trace_tail);
  /// when non-empty it is appended to what().
  RoundLimitError(std::string protocol, std::size_t rounds_run,
                  std::size_t in_flight, std::vector<NodeId> pending_nodes,
                  std::vector<std::pair<std::int32_t, std::size_t>>
                      in_flight_by_type,
                  std::string trace_tail = {});

  [[nodiscard]] std::size_t rounds_run() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
  /// Nodes with undelivered queued messages, ascending.
  [[nodiscard]] const std::vector<NodeId>& pending_nodes() const noexcept {
    return pending_;
  }
  /// The protocol label the runtime ran under ("" when unlabeled).
  [[nodiscard]] const std::string& protocol() const noexcept {
    return protocol_;
  }
  /// Undelivered messages by Message::type, ascending type — names the
  /// traffic that kept the execution alive (link-layer data/ack frames
  /// are tagged as such in what()).
  [[nodiscard]] const std::vector<std::pair<std::int32_t, std::size_t>>&
  in_flight_by_type() const noexcept {
    return by_type_;
  }

 private:
  std::string protocol_;
  std::size_t rounds_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<NodeId> pending_;
  std::vector<std::pair<std::int32_t, std::size_t>> by_type_;
};

/// The message-passing surface protocols send through. Runtime is the
/// raw (best-effort) transport; ReliableLink wraps one with
/// ack/retransmission. Protocols written against Transport can opt into
/// reliability without code changes.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends \p m from \p from to the one-hop neighbor \p to (delivered
  /// next round). Throws std::invalid_argument if {from,to} is not an
  /// edge of the topology.
  virtual void send(NodeId from, NodeId to, Message m) = 0;

  /// Sends \p m from \p from to all of its neighbors.
  virtual void broadcast(NodeId from, Message m) = 0;

  /// The topology.
  [[nodiscard]] virtual const Graph& topology() const noexcept = 0;
};

/// A node-local protocol. The runtime calls start() once for every live
/// node, then step() each round with the node's inbox, until a round
/// passes with no messages in flight and idle() holds (quiescence). Each
/// round steps every live node in ascending id — or, for a mail_driven()
/// protocol in a fault-free run, only the nodes with mail, in ascending
/// id. Every call comes from the thread that called Runtime::run().
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once per node before round 0; may send initial messages.
  virtual void start(NodeId self) = 0;

  /// Called once at the beginning of each round, before any step().
  /// Lets phase-structured protocols advance a local round counter.
  virtual void on_round_begin() {}

  /// Called once per stepped node per round with the messages delivered
  /// this round (possibly empty, unless the run is mail-driven). The
  /// span points into the runtime's recycled inbox arena and is only
  /// valid for the duration of the call.
  virtual void step(NodeId self, std::span<const Message> inbox) = 0;

  /// Called once at the end of each round, after every step() and
  /// before idle() is asked. Lets a protocol apply bookkeeping it
  /// batched over the round's steps (ReliableLink erases the packets a
  /// round acked in one pass).
  virtual void on_round_end() {}

  /// Quiescence hook: the runtime keeps executing rounds while messages
  /// are in flight *or* this returns false. Link layers with pending
  /// retransmission timers override it; plain protocols never need to.
  [[nodiscard]] virtual bool idle() const { return true; }

  /// Mail-driven contract: true promises that step() on an empty inbox
  /// changes nothing and sends nothing for a node that ran start(). A
  /// fault-free run then steps only the nodes with mail. Faulty runs
  /// step every live node regardless: a node that was down at start()
  /// never ran it. Round-indexed protocols and link layers, which act
  /// on empty rounds, keep the default.
  [[nodiscard]] virtual bool mail_driven() const { return false; }
};

/// The synchronous runtime: owns the delivery queues and runs a Protocol
/// to quiescence over a topology, optionally injecting faults from a
/// FaultPlan.
class Runtime final : public Transport {
 public:
  /// A runtime over \p g (which must outlive it) executing \p plan; the
  /// default (trivial) plan is the ideal fault-free model. \p
  /// round_offset places this execution on the plan's global timeline:
  /// events with round <= round_offset are applied before start()
  /// (supporting multi-phase constructions that thread one plan through
  /// consecutive runtimes), and the channel draw stream is decorrelated
  /// per offset.
  explicit Runtime(const Graph& g, const FaultPlan& plan = {},
                   std::size_t round_offset = 0);

  void send(NodeId from, NodeId to, Message m) override;
  void broadcast(NodeId from, Message m) override;

  /// Runs \p p until no messages are in flight and p.idle(). \p
  /// max_rounds guards against livelock; exceeding it throws
  /// RoundLimitError (a std::runtime_error).
  RunStats run(Protocol& p, std::size_t max_rounds = 1u << 20);

  /// The topology.
  [[nodiscard]] const Graph& topology() const noexcept override { return g_; }

  /// Liveness of \p v on the plan's schedule (always true fault-free).
  [[nodiscard]] bool is_up(NodeId v) const {
    return up_.empty() || up_[v];
  }

  /// Partition-group label of \p v under the currently active cut
  /// (0 for every node when no partition is active).
  [[nodiscard]] std::uint32_t group_of(NodeId v) const {
    return group_.empty() ? 0 : group_[v];
  }

  /// True if a cut currently separates \p from and \p to.
  [[nodiscard]] bool partitioned(NodeId from, NodeId to) const {
    return !group_.empty() && group_[from] != group_[to];
  }

  /// Fault-side accounting (all zero under a trivial plan).
  [[nodiscard]] const FaultStats& faults() const noexcept { return fstats_; }

  /// Streams every delivered message into \p sink (nullptr disables).
  /// The sink must outlive the run.
  void record_trace(std::vector<TraceEvent>* sink) noexcept { trace_ = sink; }

  /// Attaches observability sinks (null sinks by default) and the
  /// protocol label used for span names, metric prefixes and round-limit
  /// diagnostics. All sinks must outlive the runtime. With obs.causal
  /// set, run() opens one causal trace labeled with the protocol name,
  /// stamps a span id into every transmitted envelope and closes spans
  /// at delivery — RunStats::critical_path reports the longest chain.
  void observe(const obs::Obs& obs, std::string label = {});

  /// The causal context sends are currently attributed to: the deepest
  /// span delivered to the stepping node this round, or the root
  /// context between steps. Link layers that resend a message later
  /// (ReliableLink retransmission timers) capture the context at first
  /// post and restore it around the retransmit so retries extend the
  /// original chain instead of starting a new one.
  [[nodiscard]] obs::CausalContext context() const noexcept { return ctx_; }
  void set_context(const obs::CausalContext& ctx) noexcept { ctx_ = ctx; }

 private:
  /// Bucket destination of a broadcast record: msgs[i] stands for one
  /// copy to every neighbor of msgs[i].from, fanned out at staging.
  /// Only fault-free, causally untraced runs enqueue records; faulty or
  /// traced runs route each copy, which takes its own channel draw and
  /// span id.
  static constexpr NodeId kEveryNeighbor = std::numeric_limits<NodeId>::max();

  /// One future delivery slot: messages that cross the same number of
  /// round boundaries, in send order. Flat parallel arrays instead of
  /// per-destination vectors so a round's enqueues are appends into one
  /// recycled buffer.
  struct Bucket {
    std::vector<Message> msgs;
    std::vector<NodeId> tos;  ///< destination of msgs[i] or kEveryNeighbor

    [[nodiscard]] bool empty() const noexcept { return msgs.empty(); }
    void clear() noexcept {
      msgs.clear();
      tos.clear();
    }
  };

  /// The recycled inbox arena: each round the due Bucket is grouped by
  /// destination into one flat Message buffer (stable counting sort, so
  /// per-destination order is enqueue order; a record fans out at its
  /// own position) and protocols step over spans into it. Destinations
  /// are laid out in ascending id, read off a bitmap over node ids. All
  /// buffers are reused across rounds — after warmup the per-round cost
  /// is O(delivered + n/64), with no allocation.
  class InboxArena {
   public:
    void reset(std::size_t n);
    /// \p csr expands kEveryNeighbor records.
    void stage(const Bucket& due, graph::FrozenGraph csr);
    [[nodiscard]] std::span<const Message> inbox(NodeId v) const noexcept {
      return {buf_.data() + begin_[v], len_[v]};
    }
    /// Every message delivered this round (grouped by destination).
    [[nodiscard]] std::span<const Message> all() const noexcept {
      return buf_;
    }
    /// This round's destinations, ascending.
    [[nodiscard]] std::span<const NodeId> destinations() const noexcept {
      return dests_;
    }

   private:
    std::vector<Message> buf_;
    std::vector<std::uint32_t> begin_;
    std::vector<std::uint32_t> len_;  ///< 0 off this round's destinations
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint64_t> marked_;  ///< bitmap of this round's dests
    std::vector<NodeId> dests_;
  };

  void route(NodeId from, NodeId to, const Message& m);
  void enqueue(NodeId to, const Message& m, std::size_t delay);
  /// Deliveries an entry stands for: 1, or the sender's degree for a
  /// broadcast record.
  [[nodiscard]] std::size_t copies(NodeId to, const Message& m) const {
    return to == kEveryNeighbor ? frozen_.degree(m.from) : 1;
  }
  void apply_events_through(std::size_t global_round);
  void apply_partition(const PartitionEvent& e);
  void discard_queued(const PartitionEvent* cut, NodeId crashed);
  [[nodiscard]] Bucket take_spare();
  void recycle(Bucket&& b);
  [[nodiscard]] std::vector<NodeId> nodes_with_pending() const;
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::size_t>>
  in_flight_by_type() const;
  [[nodiscard]] obs::CausalContext deepest_context(
      std::span<const Message> inbox) const noexcept;

  const Graph& g_;
  /// Bounds-check-free CSR view for send()'s O(log deg) edge check and
  /// for expanding broadcast records.
  graph::FrozenGraph frozen_;
  FaultPlan plan_;  ///< the plan, its schedules sorted by round
  bool faulty_ = false;
  std::optional<ChannelModel> model_;
  std::vector<bool> up_;  ///< empty on the fault-free fast path
  std::size_t live_ = 0;  ///< nodes up right now
  /// Active partition grouping (empty = no partition scheduled or the
  /// network healed back into one group).
  std::vector<std::uint32_t> group_;
  /// queue_[d]: messages crossing d+1 more round boundaries (queue_[0]
  /// is the next round's traffic), recycled through spare_.
  std::deque<Bucket> queue_;
  std::vector<Bucket> spare_;
  InboxArena arena_;
  std::size_t in_flight_ = 0;
  std::size_t round_offset_ = 0;
  std::size_t rounds_run_ = 0;
  std::size_t next_event_ = 0;  ///< cursor into the sorted schedule
  std::size_t next_partition_ = 0;  ///< cursor into sorted partitions
  FaultStats fstats_;
  std::vector<TraceEvent>* trace_ = nullptr;
  std::vector<std::size_t> delays_scratch_;
  obs::Obs obs_;        ///< null sinks unless observe() was called
  std::string label_;   ///< protocol label for spans/metrics/diagnostics
  obs::CausalContext ctx_;  ///< causal context of the current step
  std::uint32_t causal_trace_ = 0;  ///< trace id of the active run
  bool causal_active_ = false;      ///< stamping spans right now?
};

}  // namespace mcds::dist
