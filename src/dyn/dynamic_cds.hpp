#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/local_repair.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "geom/vec2.hpp"
#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "udg/grid_index.hpp"

/// \file dynamic_cds.hpp
/// The incremental dynamic-CDS engine: one object that owns the three
/// layers of the streaming path and keeps them consistent per event.
///
///   udg::GridIndex      position → exact unit-disk edge deltas
///   graph::DeltaGraph   edge deltas → mutable topology over a CSR base
///   core::LocalBackbone edge deltas → localized MIS + connector repair
///
/// Every insert/move/erase/revive costs O(cells touched + Σ deg(touched)
/// + repair scope) instead of the O(n + m) solve-from-scratch, while the
/// maintained set stays a valid CDS (forest) of the alive topology after
/// *every* event. Two amortized policies bound the state: when the
/// backbone drifts past the paper's 4|MIS|+12 envelope the connectors
/// are re-derived from the maintained MIS (|B| <= 3|MIS| - 2 per
/// component, which the envelope never rejects), and
/// when the DeltaGraph overlay outgrows its threshold it is compacted
/// into a fresh CSR. Epochs bump whenever the backbone changes, so
/// view() hands dist::SelfHealingCds::reconcile() an epoch-stamped
/// core::BackboneView that merges like any partition replica's.

namespace mcds::dyn {

using graph::NodeId;

struct DynParams {
  double radius = 1.0;             ///< unit-disk communication radius
  double envelope_factor = 4.0;    ///< rebuild when |B| > f·|MIS| + bias
  std::size_t envelope_bias = 12;
  double compact_fraction = 0.25;  ///< DeltaGraph compaction threshold
  std::size_t compact_min_edits = 1024;
};

enum class EventKind : std::uint8_t { kInsert, kMove, kErase, kRevive };

/// What one event did to the maintained structure.
struct EventReport {
  EventKind kind = EventKind::kMove;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  core::RepairStats repair;
  bool rebuilt = false;    ///< envelope-triggered connector re-derivation
  bool compacted = false;  ///< overlay compacted into a fresh CSR
  std::size_t epoch = 0;   ///< engine epoch after the event
};

/// Incrementally maintained CDS over a churning node population.
class DynamicCds {
 public:
  /// Builds the initial structure over \p points (all alive) with a
  /// from-scratch solve. \p obs (null sinks by default) provides
  /// per-event-type counters ("dyn.events.*"), rebuild/compaction
  /// counters and spans ("dyn.rebuild", "dyn.compact") and the
  /// repair-scope histogram ("dyn.repair_scope").
  explicit DynamicCds(std::span<const geom::Vec2> points,
                      DynParams params = {}, const obs::Obs& obs = {});

  /// Adds a new alive node at \p p; returns its id. Fills \p report if
  /// given.
  NodeId insert(geom::Vec2 p, EventReport* report = nullptr);

  /// Repositions the alive node \p v.
  EventReport move(NodeId v, geom::Vec2 p);

  /// Fail-stops the alive node \p v (id and position slot survive).
  EventReport erase(NodeId v);

  /// Returns the dead node \p v at position \p p.
  EventReport revive(NodeId v, geom::Vec2 p);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return grid_.size();
  }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return grid_.alive_count();
  }
  [[nodiscard]] bool alive(NodeId v) const { return grid_.alive(v); }
  [[nodiscard]] geom::Vec2 position(NodeId v) const {
    return grid_.position(v);
  }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const {
    return grid_.alive_nodes();
  }

  [[nodiscard]] std::size_t cds_size() const noexcept {
    return backbone_.cds_size();
  }
  [[nodiscard]] std::size_t mis_size() const noexcept {
    return backbone_.mis_size();
  }
  [[nodiscard]] bool in_cds(NodeId v) const { return backbone_.in_cds(v); }

  /// The maintained backbone, ascending ids.
  [[nodiscard]] const std::vector<NodeId>& cds() const {
    return backbone_.cds();
  }
  /// The maintained MIS, ascending ids.
  [[nodiscard]] std::vector<NodeId> mis() const { return backbone_.mis(); }

  /// The current topology as a fresh Graph (dead nodes isolated).
  /// O(n + m).
  [[nodiscard]] graph::Graph topology() const { return g_.materialize(); }

  [[nodiscard]] const graph::DeltaGraph& delta_graph() const noexcept {
    return g_;
  }
  [[nodiscard]] const udg::GridIndex& grid() const noexcept { return grid_; }

  /// Validates the maintained backbone against the alive-induced
  /// topology via core::check_cds_components. O(n + m) — a test/debug
  /// tool, not a per-event cost.
  [[nodiscard]] core::CdsCheck check() const;

  /// Backbone changes so far (the engine's replica epoch).
  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }

  /// This engine's epoch-stamped claim over the nodes it speaks for
  /// (the alive set), mergeable by dist::SelfHealingCds::reconcile().
  [[nodiscard]] core::BackboneView view() const;

  /// Envelope-triggered connector rebuilds so far.
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }
  /// Overlay compactions so far.
  [[nodiscard]] std::size_t compactions() const noexcept {
    return g_.compactions();
  }

 private:
  EventReport finish(EventKind kind, NodeId node, core::NodeChange change);

  DynParams params_;
  udg::GridIndex grid_;
  graph::DeltaGraph g_;
  core::LocalBackbone backbone_;
  graph::EdgeDelta delta_;  ///< reused per-event scratch
  std::size_t epoch_ = 0;
  std::size_t rebuilds_ = 0;
  obs::Obs obs_;
  obs::Counter* c_event_[4] = {nullptr, nullptr, nullptr, nullptr};
  obs::Counter* c_rebuilds_ = nullptr;
  obs::Counter* c_compactions_ = nullptr;
  obs::Histogram* h_scope_ = nullptr;
};

}  // namespace mcds::dyn
