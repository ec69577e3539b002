#pragma once

#include <optional>

#include "dist/reliable_link.hpp"
#include "dist/runtime.hpp"

/// \file failure_detector.hpp
/// Heartbeat-based accrual failure detection over the runtime. Every
/// node broadcasts a heartbeat each heartbeat_every rounds; every node
/// tracks, per neighbor, a sliding window of heartbeat inter-arrival
/// gaps and derives a suspicion level phi = rounds-since-last-heard /
/// windowed-mean-gap (the linear form of Hayashibara's phi-accrual
/// detector: instead of a boolean timeout, suspicion accrues
/// continuously and is compared against a tunable threshold). Because
/// the mean adapts to observed arrival jitter, traffic stretched by
/// ReliableLink retransmission backoff raises the window mean instead
/// of tripping the detector — a lossy-but-alive neighbor does not
/// false-positive. Crashed neighbors, and neighbors severed by a
/// network partition, accrue suspicion until the threshold declares
/// them suspect; any later frame (recovery, partition heal) clears the
/// suspicion immediately. The per-node suspect sets are exactly the
/// local liveness views SelfHealingCds heals islands on.

namespace mcds::dist {

/// Tuning of the detector. Defaults detect a silent neighbor after
/// ~threshold * heartbeat_every quiet rounds on a clean link.
struct FailureDetectorParams {
  std::size_t heartbeat_every = 1;  ///< rounds between heartbeats
  std::size_t window = 8;   ///< inter-arrival gaps kept per neighbor
  double threshold = 3.0;   ///< suspicion level that declares a suspect
  std::size_t rounds = 48;  ///< observation horizon (protocol rounds)
};

/// The detector as an eighth protocol over the runtime. Construct
/// against a Transport (raw Runtime or ReliableLink), run it, then read
/// the per-node suspect views.
class FailureDetector final : public Protocol {
 public:
  /// Message::type of heartbeat frames.
  static constexpr std::int32_t kHeartbeatType = 1;

  /// Throws std::invalid_argument unless heartbeat_every >= 1,
  /// window >= 1 and threshold > 0.
  FailureDetector(Transport& net, const FailureDetectorParams& params,
                  const obs::Obs& obs = {});

  void start(NodeId self) override;
  void on_round_begin() override;
  void step(NodeId self, std::span<const Message> inbox) override;
  /// Keeps the runtime ticking through quiet rounds (a detector watching
  /// a crashed neighborhood sees no traffic at all) until the
  /// observation horizon is reached.
  [[nodiscard]] bool idle() const override {
    return round_ >= params_.rounds;
  }

  /// Neighbors \p observer currently suspects, ascending id.
  [[nodiscard]] std::vector<NodeId> suspects_of(NodeId observer) const;

  /// Current suspicion level of \p observer towards its neighbor \p w
  /// (0 for non-neighbors).
  [[nodiscard]] double phi(NodeId observer, NodeId w) const;

  /// Asks the detector to record the first round at which every live
  /// observer's suspect set exactly matches its unreachable neighbors
  /// (dead, or across the partition cut) — the detection-convergence
  /// metric of experiment E24. Call before the run.
  void track_convergence(std::vector<bool> up_truth,
                         std::vector<std::uint32_t> group_truth);

  /// First round with ground-truth-exact suspect sets everywhere, if
  /// tracking was enabled and convergence happened within the horizon.
  [[nodiscard]] std::optional<std::size_t> converged_round() const {
    return converged_round_;
  }

  /// Heartbeat frames discarded as stale retransmitted copies.
  [[nodiscard]] std::size_t dedup_hits() const noexcept { return dedup_hits_; }

 private:
  /// Detection state of one directed observer->neighbor pair.
  struct Edge {
    std::size_t last_seen = 0;   ///< round of the last frame (any frame)
    std::size_t last_fresh = 0;  ///< round of the last fresh payload
    std::int64_t last_payload = -1;  ///< newest heartbeat sequence seen
    std::size_t gap_sum = 0;
    std::size_t gap_count = 0;
    std::size_t ring_idx = 0;
    std::vector<std::size_t> gaps;  ///< ring of the last `window` gaps
    bool suspected = false;
  };

  [[nodiscard]] double phi_of(const Edge& e) const;
  void sweep_suspicions();

  Transport& net_;
  FailureDetectorParams params_;
  std::size_t round_ = 0;
  /// st_[v][i] tracks v's view of its i-th neighbor (topology order).
  std::vector<std::vector<Edge>> st_;
  std::vector<bool> up_truth_;
  std::vector<std::uint32_t> group_truth_;
  bool track_ = false;
  std::optional<std::size_t> converged_round_;
  std::size_t dedup_hits_ = 0;
  obs::Counter* c_heartbeats_ = nullptr;
  obs::Counter* c_dedup_ = nullptr;
  obs::Counter* c_suspicions_ = nullptr;
  obs::Counter* c_recoveries_ = nullptr;
};

/// Result of one detection run.
struct FailureDetectorResult {
  /// suspects[v] = neighbors v suspects at the horizon, ascending.
  std::vector<std::vector<NodeId>> suspects;
  RunStats stats;
  /// See FailureDetector::track_convergence (set only by the
  /// truth-tracking overload below).
  std::optional<std::size_t> converged_round;
};

/// Runs the detector over \p g under \p cfg for params.rounds rounds and
/// returns every node's final suspect view. \p round_offset places the
/// run on the plan's global timeline (like every other protocol entry
/// point).
[[nodiscard]] FailureDetectorResult detect_failures(
    const Graph& g, const RunConfig& cfg = {},
    const FailureDetectorParams& params = {}, std::size_t round_offset = 0);

/// Truth-tracking overload: additionally reports the first round at
/// which every live node's suspect set matched \p up_truth /
/// \p group_truth exactly (the state the plan converges to).
[[nodiscard]] FailureDetectorResult detect_failures(
    const Graph& g, const RunConfig& cfg, const FailureDetectorParams& params,
    std::vector<bool> up_truth, std::vector<std::uint32_t> group_truth,
    std::size_t round_offset = 0);

}  // namespace mcds::dist
