#pragma once

#include <vector>

#include "core/repair.hpp"
#include "core/validate.hpp"
#include "dist/runtime.hpp"

/// \file maintenance.hpp
/// Self-healing backbone maintenance. A SelfHealingCds owns the current
/// CDS of a (full) topology and, on every churn event (crashes,
/// recoveries, mobility), re-validates it on the survivor graph via
/// core::check_cds_components. The witness decides the response: a
/// backbone that merely split or one that lost coverage is repaired by
/// core::repair_cds, which on a still-dominating backbone only reglues
/// the fragments; and when churn left less than a fixed fraction of the
/// backbone alive, the distributed WAF construction is re-run from
/// scratch on the survivor topology. Only the affected phase runs — an
/// intact backbone costs one validity check. A fragmented survivor
/// graph (crashes, or a network partition) is healed into a CDS forest,
/// one tree per connected component.
///
/// Under a partition the driver is replicated: each island runs its own
/// SelfHealingCds restricted via set_island() to the nodes it can reach
/// (its failure-detector view), and every heal pass that changes the
/// backbone bumps the replica's epoch. When the partition heals,
/// reconcile() merges the islands' epoch-stamped views — where two
/// views disagree about a node, the higher epoch wins — and reglues the
/// union instead of rebuilding from scratch.

namespace mcds::dist {

/// What a heal pass did.
enum class HealAction {
  kIntact,       ///< survivor CDS still valid — nothing done
  kReconnected,  ///< backbone split but still dominating; repair
                 ///< reglued the fragments
  kRepaired,     ///< coverage lost; full (domination + connectivity)
                 ///< repair ran
  kRebuilt,      ///< too little survived; distributed WAF re-ran
  kUnhealable,   ///< no survivor in scope — nothing to maintain
};

/// Degraded-mode detail attached to a kUnhealable pass: the pass found
/// nothing live to maintain, so the driver is coasting on its last good
/// state. Distinguishes "this island is empty" (an operator can ignore
/// it) from "the healer gave up on a populated scope" (it cannot).
struct DegradedReport {
  /// Epoch of the last pass that left a non-empty in-scope backbone —
  /// the newest core::BackboneView worth replaying when the scope
  /// repopulates.
  std::size_t last_good_epoch = 0;
  /// In-scope backbone size at that epoch.
  std::size_t last_good_members = 0;
  /// Consecutive kUnhealable passes ending with this one.
  std::size_t consecutive = 0;
};

/// Report of one on_churn() / reconcile() pass.
struct HealReport {
  HealAction action = HealAction::kIntact;
  core::CdsCheck issue;       ///< the witness that triggered healing
  std::size_t survivors = 0;  ///< live nodes in scope after the event
  std::size_t kept = 0;       ///< backbone nodes retained
  std::size_t added = 0;      ///< nodes newly recruited
  std::size_t dropped = 0;    ///< backbone nodes lost or discarded
  std::size_t islands = 0;    ///< connected components healed over
  std::size_t epoch = 0;      ///< replica epoch after this pass
  RunStats stats;             ///< distributed cost (kRebuilt only)
  DegradedReport degraded;    ///< kUnhealable only (zeroed otherwise)
};

/// Maintains one backbone across a sequence of churn events.
class SelfHealingCds {
 public:
  /// \p g is the full topology (it must outlive the driver); \p cds its
  /// current CDS, in full-graph node ids. \p obs (null sinks by default)
  /// traces each heal pass and counts actions under "maintenance.*".
  SelfHealingCds(const Graph& g, std::vector<NodeId> cds,
                 const obs::Obs& obs = {});

  /// Applies a new liveness vector (size = full graph) and heals the
  /// backbone on the graph induced by the live nodes — per connected
  /// component when the survivor graph is fragmented. With an island
  /// set, only island nodes are touched (the rest of the backbone is
  /// frozen until reconcile()). Idempotent: a second call with the same
  /// vector reports kIntact. Bumps the epoch iff the backbone changed.
  HealReport on_churn(const std::vector<bool>& up);

  /// Restricts this replica to one partition island: subsequent
  /// on_churn() passes treat \p island (the nodes this replica can
  /// reach, per its failure-detector view) as the whole world and leave
  /// the backbone outside it untouched. An empty vector lifts the
  /// restriction. Throws std::invalid_argument on out-of-range ids.
  void set_island(std::vector<NodeId> island);

  /// This replica's epoch-stamped view of its island (of the whole
  /// graph when no island is set).
  [[nodiscard]] core::BackboneView view() const;

  /// Cross-island reconciliation after a partition heal: merges the
  /// replicas' views under the highest-epoch-wins rule (nodes no view
  /// speaks for keep their current membership), lifts the island
  /// restriction, adopts the merged backbone and heals it on \p up —
  /// regluing the union, never rebuilding, since every island
  /// contributes its full maintained fragment. The replica's epoch
  /// advances past every merged view's.
  HealReport reconcile(const std::vector<core::BackboneView>& views,
                       const std::vector<bool>& up);

  /// Heal passes that changed this replica's backbone.
  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }

  /// The newest epoch-stamped view whose in-scope backbone was
  /// non-empty — what a degraded (kUnhealable) replica is coasting on,
  /// and the state worth replaying once its scope repopulates. Empty
  /// island/cds at epoch 0 if no pass ever had a backbone.
  [[nodiscard]] const core::BackboneView& last_good_view() const noexcept {
    return last_good_;
  }

  /// The current backbone, full-graph ids, ascending. After a heal every
  /// in-scope member is live; a valid CDS forest of the survivor graph
  /// unless the last report said kUnhealable.
  [[nodiscard]] const std::vector<NodeId>& cds() const noexcept {
    return cds_;
  }

 private:
  [[nodiscard]] HealReport heal(const std::vector<bool>& up);

  const Graph& g_;
  std::vector<NodeId> cds_;
  /// Island restriction (ascending; empty = whole graph in scope).
  std::vector<NodeId> island_;
  std::size_t epoch_ = 0;
  /// Degraded-mode bookkeeping (see last_good_view()).
  core::BackboneView last_good_;
  std::size_t consecutive_unhealable_ = 0;
  obs::Obs obs_;
  /// Pre-resolved per-action counters, indexed by HealAction; nullptr
  /// when metrics are off.
  obs::Counter* c_action_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
  obs::Counter* c_unhealable_ = nullptr;  ///< "heal.unhealable"
};

}  // namespace mcds::dist
