#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "dist/runtime.hpp"

/// \file reliable_link.hpp
/// Stop-and-wait reliability over the lossy runtime. ReliableLink sits
/// between a protocol and the Runtime, implementing both interfaces: to
/// the protocol it is the Transport (sends get a per-directed-link
/// sequence number and are retransmitted with exponential backoff until
/// acked or the retry budget runs out); to the Runtime it is the
/// Protocol (acks incoming data, suppresses duplicate deliveries, and
/// hands deduplicated payloads to the wrapped protocol). Event-driven
/// protocols — MIS election, min-id flooding, the probe/join connector
/// phase — become loss-tolerant this way without any code change.
/// Round-indexed protocols additionally stretch their phase thresholds
/// by reliable_delivery_bound().

namespace mcds::dist {

/// Message::link tags used by the wrapper. Raw protocol traffic keeps
/// link == 0 and passes through untouched.
inline constexpr std::int32_t kLinkData = 1;
inline constexpr std::int32_t kLinkAck = 2;

/// Worst-case rounds from handing a message to ReliableLink until the
/// wrapped protocol processes it, assuming the retry budget is not
/// exhausted: the full backoff schedule plus the final delivery round,
/// capped by the TTL when one is configured (a payload older than
/// ttl_rounds is abandoned, so no delivery can land later than that).
[[nodiscard]] std::size_t reliable_delivery_bound(
    const ReliableLinkParams& params) noexcept;

/// Why the link abandoned a payload.
enum class DeliveryFailureReason : std::uint8_t {
  kRetryBudget,  ///< max_retries retransmissions went unacked
  kTtlExpired,   ///< the payload aged past ttl_rounds unacked
};

/// One payload the link gave up on — the structured delivery_failed
/// outcome a protocol (or its driver) consumes instead of inferring
/// loss from silence. The original payload is retained so the caller
/// can requeue, reroute or report it.
struct DeliveryFailure {
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t seq = 0;          ///< link-layer sequence number
  Message payload;                ///< original message (link/seq clear)
  std::size_t retransmissions = 0;  ///< retransmissions spent on it
  DeliveryFailureReason reason = DeliveryFailureReason::kRetryBudget;
};

/// The ack/retransmission wrapper. Construct against a Runtime, build
/// the protocol against *this* as its Transport, then attach() it and
/// run the link (not the protocol) on the runtime.
class ReliableLink final : public Transport, public Protocol {
 public:
  /// Throws std::invalid_argument unless rto >= 1 and max_rto >= rto.
  /// \p obs (null sinks by default) counts retransmissions, expiries and
  /// receiver-side dedup hits under "reliable_link.*".
  ReliableLink(Runtime& rt, const ReliableLinkParams& params,
               const obs::Obs& obs = {});

  /// Sets the protocol whose traffic this link carries.
  void attach(Protocol& inner) noexcept { inner_ = &inner; }

  // Transport surface (called by the wrapped protocol).
  void send(NodeId from, NodeId to, Message m) override;
  void broadcast(NodeId from, Message m) override;
  [[nodiscard]] const Graph& topology() const noexcept override {
    return rt_.topology();
  }

  // Protocol surface (driven by the runtime).
  void start(NodeId self) override;
  void on_round_begin() override;
  void step(NodeId self, std::span<const Message> inbox) override;
  /// Erases the packets this round's steps saw acked, in one stable pass
  /// over the pending list.
  void on_round_end() override;
  /// Not idle while any live sender still waits for an ack — keeps the
  /// runtime ticking through empty rounds so backoff timers can fire.
  /// Packets owned by crashed senders are frozen (stable storage) and do
  /// not hold the execution open.
  [[nodiscard]] bool idle() const override;

  /// Retransmitted data packets (excluding first transmissions).
  [[nodiscard]] std::size_t retransmissions() const noexcept {
    return retransmissions_;
  }
  /// Payloads abandoned (retry budget exhausted or TTL exceeded).
  [[nodiscard]] std::size_t expired() const noexcept { return expired_; }
  /// Duplicate data frames suppressed by receiver-side dedup.
  [[nodiscard]] std::size_t dedup_hits() const noexcept { return dedup_hits_; }
  /// Structured record of every abandoned payload, in abandonment
  /// order. failed_deliveries().size() == expired().
  [[nodiscard]] const std::vector<DeliveryFailure>& failed_deliveries()
      const noexcept {
    return failures_;
  }

 private:
  struct Pending {
    NodeId from = 0;
    NodeId to = 0;
    Message payload;  ///< original message, link/seq fields clear
    std::uint32_t seq = 0;
    std::size_t timer = 0;  ///< rounds until the next retransmission
    std::size_t rto = 0;    ///< current backoff interval
    std::size_t retries_left = 0;
    std::size_t age = 0;  ///< rounds spent unacked (sender up), for TTL
    /// Causal context captured at first post; retransmissions restore
    /// it so a retried message extends the chain that caused it instead
    /// of rooting a fresh one (the retry is the same logical send).
    obs::CausalContext ctx;
  };

  void post(NodeId from, NodeId to, const Message& payload);

  Runtime& rt_;
  ReliableLinkParams params_;
  Protocol* inner_ = nullptr;
  /// The retransmission queue, in post order.
  std::vector<Pending> pending_;
  /// Acks node v received this round, as (peer, seq) of its v -> peer
  /// transmission; on_round_end() erases the matching packets. Keyed by
  /// sender so each pending packet looks up only its own sender's acks.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> acked_;
  /// Nodes with a non-empty acked_ slot this round.
  std::vector<NodeId> ackers_;
  /// Next sequence number per directed link, sharded by sender.
  std::vector<std::unordered_map<NodeId, std::uint32_t>> next_seq_;
  /// Receiver-side dedup: seqs already delivered, sharded by receiver.
  std::vector<std::unordered_map<NodeId, std::unordered_set<std::uint32_t>>>
      delivered_;
  std::size_t retransmissions_ = 0;
  std::size_t expired_ = 0;
  std::size_t dedup_hits_ = 0;
  std::vector<DeliveryFailure> failures_;
  /// Pre-resolved metric sinks (nullptr when observability is off, so
  /// the hot paths pay one pointer test each).
  obs::Counter* c_retx_ = nullptr;
  obs::Counter* c_expired_ = nullptr;
  obs::Counter* c_dedup_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
};

/// Plumbing shared by the fault-aware protocol entry points: one
/// Runtime placed at \p round_offset on the plan's timeline, plus the
/// optional ReliableLink in front of it, built from one RunConfig.
class FaultHarness {
 public:
  /// \p label names the protocol in spans, metric prefixes and
  /// round-limit diagnostics (empty = unlabeled).
  FaultHarness(const Graph& g, const RunConfig& cfg, std::size_t round_offset,
               std::string label = {})
      : rt_(g, cfg.plan, round_offset), max_rounds_(cfg.max_rounds) {
    rt_.record_trace(cfg.trace);
    rt_.observe(cfg.obs, std::move(label));
    if (cfg.reliable) link_.emplace(rt_, cfg.link, cfg.obs);
  }

  /// The transport to build the protocol against.
  [[nodiscard]] Transport& net() noexcept {
    return link_ ? static_cast<Transport&>(*link_) : rt_;
  }

  /// Runs \p p to quiescence (through the link when configured).
  RunStats run(Protocol& p) {
    if (!link_) return rt_.run(p, max_rounds_);
    link_->attach(p);
    return rt_.run(*link_, max_rounds_);
  }

  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] const ReliableLink* link() const noexcept {
    return link_ ? &*link_ : nullptr;
  }

 private:
  Runtime rt_;
  std::optional<ReliableLink> link_;
  std::size_t max_rounds_;
};

}  // namespace mcds::dist
