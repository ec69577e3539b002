#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"

/// \file local_repair.hpp
/// Localized maintenance of a two-phased CDS under streaming edge
/// deltas. The static pipeline (phase-1 MIS, phase-2 connectors) costs
/// O(n + m) per run; LocalBackbone instead repairs the structure inside
/// the neighborhood an event actually touched:
///
///  * MIS repair is driven by per-node dominator counts
///    (cover[v] = #alive MIS neighbors of v). Removed edges decrement,
///    added edges increment, an added MIS–MIS edge deterministically
///    evicts the larger id (which stays behind as a plain connector),
///    and every node whose count reaches zero re-enters the MIS in
///    ascending id order — all work stays within two hops of the
///    touched nodes, and the invariant "cover[v] = 0 ⇔ v ∈ MIS" keeps
///    the set a maximal independent set (hence dominating) of the alive
///    graph after every event.
///
///  * Connectivity repair seeds a lockstep multi-source BFS over the
///    backbone from every backbone node in the 1-hop halo of the
///    touched nodes, plus the new MIS members. Seed lemma: when an event
///    splits the backbone of a topology component, every fragment holds
///    a seed. Whatever now separates a fragment from the rest of its
///    component (a removed edge, a dead node, a new edge from another
///    component, a newly undominated node) lies at a touched node that
///    is in the fragment or dominated by it, and the seeds cover every
///    touched node's closed halo. Balanced expansion (always grow the
///    smallest search) with union-on-meet costs O(size of the small
///    fragments), not O(component): the surviving giant fragment is
///    explored only as far as the fragments racing it. Completed
///    fragments are re-attached through a ≤3-hop bridge (one or two
///    fresh connectors); by the MIS 3-hop adjacency lemma a fragment
///    with no such bridge provably *is* the complete backbone of its own
///    topology component (a partition island), mirroring the CDS-forest
///    semantics of check_cds_components. After the first pass's
///    bridges, a union-find over the pass's groups and the bridges'
///    backbone neighbors usually proves every seed rejoined, and the
///    confirming search from all seeds is skipped.
///
/// The per-event cost is O(Σ deg(touched) + repaired scope); the engine
/// layer (src/dyn) adds the 4|MIS|+12 envelope policy and compaction on
/// top. Adjacency comes from DeltaGraph::neighbors() spans, and the
/// search keeps one 8-byte visit record (pass stamp, group) per node.
///
/// From-scratch connectors (construction and the envelope rebuild) come
/// from one ConnectorEngine over the whole topology, seeded with the
/// MIS: dead nodes have no edges (udg::GridIndex removes them all on
/// erase), and components never interact, so each component gets its
/// own phase 2. Its stalls at 3-hop gaps are patched in place with
/// ConnectorEngine::bridge_gap().

namespace mcds::core {

/// How the event changed the event node's liveness.
enum class NodeChange : std::uint8_t {
  kNone,  ///< position-only event (or pure edge churn)
  kBorn,  ///< node inserted or revived (alive after the event)
  kDied,  ///< node erased (dead after the event)
};

/// Per-event repair accounting.
struct RepairStats {
  std::size_t mis_added = 0;
  std::size_t mis_removed = 0;
  std::size_t connectors_added = 0;
  std::size_t backbone_removed = 0;
  /// Backbone nodes the connectivity searches explored. A pass whose
  /// bridges provably rejoin every seed skips the confirming search, so
  /// this counts the work done, not a property of the backbone.
  std::size_t scope = 0;
  std::size_t islands = 0;  ///< fragments confirmed as partition islands

  [[nodiscard]] bool changed() const noexcept {
    return mis_added != 0 || mis_removed != 0 || connectors_added != 0 ||
           backbone_removed != 0;
  }
};

/// Incrementally maintained MIS + connector backbone over a DeltaGraph
/// and a per-node liveness vector. After construction and after every
/// on_event() the tracked set is a valid CDS of each connected
/// component of the alive subgraph (a CDS forest).
class LocalBackbone {
 public:
  LocalBackbone() = default;

  /// Solves from scratch over the alive subgraph of \p g.
  LocalBackbone(const graph::DeltaGraph& g,
                std::span<const std::uint8_t> alive);

  /// From-scratch solve: lowest-id first-fit MIS over the alive nodes,
  /// then the connectors as rebuild_connectors() derives them.
  void rebuild(const graph::DeltaGraph& g,
               std::span<const std::uint8_t> alive);

  /// Keeps the current MIS and re-derives the connectors from scratch:
  /// one phase-2 engine over \p g, each stall patched with a 3-hop
  /// connector pair. Used by the envelope policy: each max-gain connector
  /// merges >= 1 fragment and each pair exactly 1, so |B| <= 3|MIS| - 2
  /// per component, inside the 4|MIS| + 12 envelope. O(n + m), plus one
  /// more O(n + m) pass at the first stall and, at each later one, work
  /// around the nodes admitted since the stall before
  /// (ConnectorEngine::bridge_gap()). Throws std::invalid_argument if a
  /// dead node of \p g has an edge.
  void rebuild_connectors(const graph::DeltaGraph& g,
                          std::span<const std::uint8_t> alive);

  /// Repairs the backbone after one event. \p g and \p alive must
  /// already reflect the post-event state; \p delta holds the exact
  /// edge changes (canonical u < v); \p node is the event node for
  /// kBorn/kDied changes (ignored for kNone).
  RepairStats on_event(const graph::DeltaGraph& g,
                       std::span<const std::uint8_t> alive, graph::NodeId node,
                       NodeChange change, const graph::EdgeDelta& delta);

  [[nodiscard]] std::size_t mis_size() const noexcept { return mis_size_; }
  [[nodiscard]] std::size_t cds_size() const noexcept { return cds_size_; }
  [[nodiscard]] bool in_mis(graph::NodeId v) const {
    return in_mis_.at(v) != 0;
  }
  [[nodiscard]] bool in_cds(graph::NodeId v) const {
    return in_cds_.at(v) != 0;
  }

  /// The backbone, ascending. Cached; invalidated by mutations.
  [[nodiscard]] const std::vector<graph::NodeId>& cds() const;

  /// The MIS, ascending (always recomputed from the flags).
  [[nodiscard]] std::vector<graph::NodeId> mis() const;

  /// True when |B| > factor·|MIS| + bias — the caller should trigger
  /// rebuild_connectors().
  [[nodiscard]] bool envelope_exceeded(double factor,
                                       std::size_t bias) const noexcept;

 private:
  void grow(std::size_t n);
  void dec_cover(graph::NodeId v, std::vector<graph::NodeId>& zeros);
  /// Restores per-component backbone connectivity starting from
  /// \p seeds (backbone nodes). May add connectors.
  void ensure_connected(const graph::DeltaGraph& g,
                        std::span<const std::uint8_t> alive,
                        std::vector<graph::NodeId>& seeds, RepairStats& st);
  /// After a search pass that islanded nothing: true when the pass's
  /// \p bridges provably join every group (\p group_root, with \p open
  /// the one unfinished group or group_root.size()) into one fragment.
  bool bridges_rejoin(const graph::DeltaGraph& g,
                      const std::vector<std::uint32_t>& group_root,
                      std::uint32_t open,
                      const std::vector<graph::NodeId>& bridges);
  /// Finds a <=3-hop bridge from the complete fragment \p fragment
  /// (whose nodes carry cur_stamp_ / group root \p root) to any
  /// backbone node outside it. Returns 0 (none: partition island), 1 or
  /// 2 connectors in \p out.
  std::size_t find_bridge(const graph::DeltaGraph& g,
                          std::span<const std::uint8_t> alive,
                          const std::vector<graph::NodeId>& fragment,
                          const std::vector<std::uint32_t>& group_root,
                          std::uint32_t root, graph::NodeId out[2]) const;

  std::vector<std::uint8_t> in_mis_;
  std::vector<std::uint8_t> in_cds_;
  /// cover_[v] = number of alive MIS members adjacent to v.
  std::vector<std::uint32_t> cover_;
  std::size_t mis_size_ = 0;
  std::size_t cds_size_ = 0;

  /// One visit record per node for the lockstep search: the pass that
  /// reached it and the group that did — persistent so per-event repair
  /// allocates nothing per node on the hot path. The array is cleared
  /// when the 32-bit stamp wraps.
  struct Visit {
    std::uint32_t stamp = 0;
    std::uint32_t owner = 0;
  };
  std::vector<Visit> visit_;
  std::uint32_t cur_stamp_ = 0;

  mutable std::vector<graph::NodeId> cds_cache_;
  mutable bool cds_dirty_ = true;
};

}  // namespace mcds::core
