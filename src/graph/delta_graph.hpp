#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// \file delta_graph.hpp
/// A mutable overlay over the immutable CSR core. A Graph cannot change
/// once built, and rebuilding its CSR costs O(n + m) — exactly wrong for
/// streaming churn where each event touches a handful of edges.
/// DeltaGraph keeps a Graph as the base snapshot and, for every node an
/// edit has touched, one sorted copy of that node's current row. A
/// lookup reads the patched row or the base span, so a traversal over a
/// DeltaGraph visits exactly the sequence a rebuilt CSR would produce
/// (golden traces over either representation agree byte for byte). When
/// the edits grow past a fraction of the base the graph is compacted —
/// rebuilt into a fresh CSR — in one O(n + m) pass, amortizing the
/// rebuild over the many events that fit under the threshold.

namespace mcds::graph {

/// An exact set of edge changes: every pair appears with u < v, the
/// added and removed lists are disjoint, and within one event both are
/// lexicographically sorted. Produced by udg::GridIndex per event and
/// consumed by DeltaGraph::apply and the localized repair layer.
struct EdgeDelta {
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<std::pair<NodeId, NodeId>> removed;

  void clear() noexcept {
    added.clear();
    removed.clear();
  }
  [[nodiscard]] bool empty() const noexcept {
    return added.empty() && removed.empty();
  }
};

/// A graph that accepts O(degree)-cost edge mutations over a frozen CSR
/// snapshot. Node ids are stable; add_node() appends. A node's first edit
/// copies its base row into a patched row; later edits insert into or
/// erase from that sorted row, so lookups cost one slot read.
class DeltaGraph {
 public:
  DeltaGraph() = default;

  /// Takes ownership of \p base. Compaction triggers when the overlay
  /// holds more than \p compact_fraction of the base's directed
  /// adjacency entries, but never below \p compact_min_edits (small
  /// graphs would otherwise thrash).
  explicit DeltaGraph(Graph base, double compact_fraction = 0.25,
                      std::size_t compact_min_edits = 1024);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Appends an isolated node and returns its id.
  NodeId add_node();

  /// Adds the undirected edge {u, v}. Throws std::invalid_argument on
  /// out-of-range endpoints, self-loops, or an edge that already exists
  /// (deltas are exact; a duplicate signals a caller bug).
  void add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}. Throws std::invalid_argument if
  /// the edge is absent.
  void remove_edge(NodeId u, NodeId v);

  /// Applies an exact delta: removals first, then additions.
  void apply(const EdgeDelta& delta);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId u) const {
    return neighbors(u).size();
  }

  /// The neighbors of \p u in ascending id order — the row a rebuilt CSR
  /// would hold. Valid until the next edit of \p u or compact(). Throws
  /// std::invalid_argument if \p u is out of range.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    check_node(u);
    if (slot_[u] != kUntouched) return rows_[slot_[u]];
    if (u < base_nodes_) return base_.neighbors(u);
    return {};
  }

  /// Directed edits that differ from the base (both directions of every
  /// undirected edge counted; an edit that restores the base cancels
  /// one).
  [[nodiscard]] std::size_t overlay_edits() const noexcept {
    return overlay_edits_;
  }

  /// True when the overlay exceeds the compaction threshold.
  [[nodiscard]] bool compaction_due() const noexcept;

  /// Rebuilds the current rows into a fresh CSR snapshot and drops the
  /// patched rows. O(n + m).
  void compact();

  /// Number of compactions performed so far.
  [[nodiscard]] std::size_t compactions() const noexcept {
    return compactions_;
  }

  /// A fresh Graph equal to the current topology.
  [[nodiscard]] Graph materialize() const;

  /// The frozen base snapshot (valid until the next compact()).
  [[nodiscard]] const Graph& base() const noexcept { return base_; }

 private:
  static constexpr std::uint32_t kUntouched = 0xffffffffu;

  void check_node(NodeId u) const;
  [[nodiscard]] bool base_has(NodeId u, NodeId v) const;
  /// Inserts (\p add) or erases v in u's patched row, copying the base
  /// row on first touch; returns the overlay_edits() change.
  int apply_half(NodeId u, NodeId v, bool add);

  Graph base_;  ///< CSR snapshot
  std::vector<std::uint32_t> slot_;  ///< [u]: index into rows_ or kUntouched
  std::vector<std::vector<NodeId>> rows_;  ///< patched rows, sorted
  std::size_t n_ = 0;
  std::size_t base_nodes_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t overlay_edits_ = 0;
  std::size_t compactions_ = 0;
  double compact_fraction_ = 0.25;
  std::size_t compact_min_edits_ = 1024;
};

}  // namespace mcds::graph
