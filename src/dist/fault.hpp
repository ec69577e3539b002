#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"

/// \file fault.hpp
/// Fault model for the distributed runtime. A FaultPlan describes, ahead
/// of an execution, everything that will go wrong: per-link message
/// drop/duplication/delay rates, a fail-stop crash/recovery schedule,
/// and scheduled network partitions (the node set splits into groups;
/// cross-group messages are dropped until a later event heals the cut).
/// The plan is purely declarative and seeded — identical (plan, protocol)
/// pairs replay identical executions, so any chaos-test failure is
/// reproducible from the seed printed with it. The Runtime consults a
/// ChannelModel built from the plan at send time; with the default
/// (trivial) plan the runtime behaves exactly as the ideal synchronous
/// model the paper assumes. Plans serialize to JSON (fault_json.hpp) so
/// fuzzer-minimized repros replay from the command line.

namespace mcds::par {
class ThreadPool;
}  // namespace mcds::par

namespace mcds::dist {

using graph::Graph;
using graph::NodeId;

/// Upper bound on LinkFaults::max_delay. Each extra round of delay costs
/// one queue bucket per node in the runtime, so an absurd delay (a typo,
/// an overflowing subtraction in a generator) would silently allocate
/// gigabytes at delivery time; plans reject it at construction instead.
inline constexpr std::size_t kMaxLinkDelay = 1u << 20;

/// Fault rates of one directed link (or of every link, when used as the
/// plan default). All zero = a perfect link.
struct LinkFaults {
  double drop = 0.0;       ///< per-message loss probability in [0, 1]
  double duplicate = 0.0;  ///< probability of delivering one extra copy
  std::size_t max_delay = 0;  ///< extra delivery delay, uniform in
                              ///< [0, max_delay] rounds (reorders traffic)

  /// True if this link never misbehaves.
  [[nodiscard]] bool clean() const noexcept {
    return drop == 0.0 && duplicate == 0.0 && max_delay == 0;
  }

  /// Throws std::invalid_argument unless drop and duplicate are
  /// probabilities in [0, 1] and max_delay <= kMaxLinkDelay. \p what
  /// names the link in the error ("link", "override 3", ...).
  void validate(const char* what = "link") const;
};

/// Per-link exception to the plan's default fault rates.
struct LinkOverride {
  NodeId from = 0;
  NodeId to = 0;
  LinkFaults faults;
};

/// One fail-stop transition. Events with round r are applied at the
/// beginning of round r, before that round's deliveries; round 0 means
/// "before the protocol starts". A down node neither receives (queued
/// messages are discarded) nor steps nor sends; a recovered node resumes
/// with its protocol state intact (crash-recover with stable storage).
struct CrashEvent {
  std::size_t round = 0;
  NodeId node = 0;
  bool up = false;  ///< false = crash, true = recovery
};

/// One scheduled partition transition, applied at the beginning of round
/// `round` alongside that round's crash events. The node set splits into
/// the listed groups; nodes absent from every group share one implicit
/// extra group (so `{{a, b}}` isolates a and b from everyone else).
/// While a partition is active, messages whose endpoints are in
/// different groups are dropped at send time (before any channel
/// randomness is consumed, so partitions compose deterministically with
/// drop/dup/delay). An event with an empty group list heals the network:
/// later traffic flows everywhere again, but messages already lost to
/// the cut stay lost. The latest event with round <= r defines the
/// grouping of round r.
struct PartitionEvent {
  std::size_t round = 0;
  std::vector<std::vector<NodeId>> groups;

  /// True if this event restores full connectivity.
  [[nodiscard]] bool heals() const noexcept { return groups.empty(); }
};

/// A complete, deterministic fault schedule for one execution (possibly
/// spanning several protocol phases — each phase's Runtime picks up the
/// timeline at its round offset). The default-constructed plan is
/// trivial: no faults, and the runtime's behavior is bit-identical to
/// the fault-free implementation.
struct FaultPlan {
  LinkFaults link;                      ///< default for every directed link
  std::vector<LinkOverride> overrides;  ///< per-link exceptions
  std::vector<CrashEvent> schedule;     ///< crash/recovery events
  std::vector<PartitionEvent> partitions;  ///< scheduled splits/heals
  std::uint64_t seed = 0;               ///< drives all drop/dup/delay draws

  /// True if the plan injects no fault at all.
  [[nodiscard]] bool trivial() const noexcept {
    return link.clean() && overrides.empty() && schedule.empty() &&
           partitions.empty();
  }

  /// Full structural validation: every fault rate must be a probability,
  /// every delay below kMaxLinkDelay, and no partition event may list
  /// one node in two groups. Throws std::invalid_argument with a message
  /// naming the offending field. The Runtime and ChannelModel validate
  /// at construction so a malformed plan fails before the first
  /// delivery, not during it.
  void validate() const;

  /// Node liveness after every event with round <= \p through_round has
  /// been applied (pass SIZE_MAX for the final state — the chaos
  /// harness's survivor set).
  [[nodiscard]] std::vector<bool> up_after(std::size_t n,
                                           std::size_t through_round) const;

  /// Partition-group label of every node after the last partition event
  /// with round <= \p through_round (all zero = no cut active). Nodes
  /// absent from that event's groups share label groups.size().
  [[nodiscard]] std::vector<std::uint32_t> groups_at(
      std::size_t n, std::size_t through_round) const;
};

/// The seeded per-link fate sampler the Runtime consults on every send.
/// Decisions are drawn in a fixed order (drop, duplicate, per-copy
/// delay), so the fate sequence is fully determined by (plan seed,
/// stream, send order).
class ChannelModel {
 public:
  /// \p stream decorrelates the draw sequences of multi-phase runs that
  /// share one plan (each phase passes its round offset).
  ChannelModel(const FaultPlan& plan, std::uint64_t stream);

  /// Appends the delivery delays (in extra rounds; 0 = the normal
  /// next-round delivery) of one message on \p from -> \p to to
  /// \p delays. No appended entry = the message is dropped; more than
  /// one = duplication.
  void sample(NodeId from, NodeId to, std::vector<std::size_t>& delays);

 private:
  [[nodiscard]] const LinkFaults& resolve(NodeId from, NodeId to) const;

  LinkFaults default_;
  std::unordered_map<std::uint64_t, LinkFaults> overrides_;
  sim::Rng rng_;
};

/// Fault-side accounting of one Runtime execution (the RunStats
/// delivered-message/round counters are unchanged by this subsystem).
struct FaultStats {
  std::size_t dropped = 0;          ///< messages lost by the channel
  std::size_t duplicated = 0;       ///< extra copies injected
  std::size_t delayed = 0;          ///< copies delivered >= 1 round late
  std::size_t crash_discarded = 0;  ///< queued messages lost to a crash
  std::size_t suppressed = 0;       ///< sends while an endpoint was down
  std::size_t partition_dropped = 0;  ///< messages lost across a cut
                                      ///< (sends plus in-flight at split)
};

/// One delivered message, as recorded by Runtime::record_trace. Two
/// executions are behaviorally identical iff their traces are equal —
/// the determinism guard and the zero-fault differential test compare
/// these.
struct TraceEvent {
  std::size_t round = 0;  ///< global round (offset + local round)
  NodeId from = 0;
  NodeId to = 0;
  std::int32_t type = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int32_t link = 0;
  std::uint32_t seq = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// Parameters of the ReliableLink ack/retransmission wrapper.
struct ReliableLinkParams {
  std::size_t max_retries = 12;  ///< retransmissions before giving up
  std::size_t rto = 3;  ///< rounds between (re)transmissions. An ack takes
                        ///< two rounds to return, so rto >= 3 keeps a clean
                        ///< link free of spurious retransmits.
  std::size_t max_rto = 16;  ///< exponential-backoff cap
  /// Time-to-live: total rounds a payload may sit unacked (while its
  /// sender is up) before the link gives up on it regardless of the
  /// retry budget. 0 = no TTL (budget-only). Either way, an abandoned
  /// payload surfaces as a structured DeliveryFailure — a permanently
  /// dead peer produces a bounded number of retransmissions and a
  /// delivery_failed outcome, never an unbounded retry loop.
  std::size_t ttl_rounds = 0;
};

/// How to execute a protocol under faults: the plan, whether to route
/// its traffic through ReliableLink, and the livelock guard. The
/// default config reproduces the ideal fault-free execution exactly.
struct RunConfig {
  FaultPlan plan;
  bool reliable = false;  ///< wrap protocol traffic in ReliableLink
  ReliableLinkParams link;
  std::size_t max_rounds = 1u << 20;
  /// When non-null, every delivered message of every phase is appended
  /// here (global round numbers). Must outlive the run.
  std::vector<TraceEvent>* trace = nullptr;
  /// Observability sinks (metrics registry and/or structured trace
  /// recorder) threaded through every phase's runtime and link layer.
  /// Default: null sinks — zero-overhead disabled instrumentation.
  obs::Obs obs;
  /// Ignored: every round runs on the calling thread. The field stays
  /// only because the end-to-end benchmark's `dist` workload still sets
  /// it; it goes once that benchmark stops doing so.
  par::ThreadPool* pool = nullptr;
};

}  // namespace mcds::dist
