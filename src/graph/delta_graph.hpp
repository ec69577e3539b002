#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// \file delta_graph.hpp
/// A mutable overlay over the immutable CSR core. A Graph cannot change
/// once built, and rebuilding its CSR costs O(n + m) — exactly wrong for
/// streaming churn where each event touches a handful of edges.
/// DeltaGraph keeps a Graph as the base snapshot and layers per-node
/// added / removed neighbor lists on the side. Iteration merges the two
/// in ascending id order, so a traversal over a DeltaGraph visits
/// exactly the sequence a rebuilt CSR would produce (golden traces over
/// either representation agree byte for byte). When the overlay grows
/// past a fraction of the base it is compacted — rebuilt into a fresh
/// CSR — in one O(n + m) pass, amortizing the rebuild over the many
/// events that fit under the threshold.

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
/// snapshot. Node ids are stable; add_node() appends. The overlay keeps
/// removed-lists as subsets of the base adjacency and added-lists
/// disjoint from it, so membership and merged iteration are two binary
/// searches / one two-pointer sweep per node.
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

  [[nodiscard]] std::size_t degree(NodeId u) const;

  /// Visits the neighbors of \p u in ascending id order — the same
  /// sequence a rebuilt CSR would yield. Untouched nodes iterate the
  /// base span directly (no merge, no hash lookup).
  template <class F>
  void for_each_neighbor(NodeId u, F&& f) const {
    check_node(u);
    std::span<const NodeId> base{};
    if (u < base_nodes_) base = base_.neighbors(u);
    if (!touched_[u]) {
      for (const NodeId v : base) f(v);
      return;
    }
    const Overlay& ov = overlay_.find(u)->second;
    std::size_t bi = 0;
    std::size_t ai = 0;
    std::size_t ri = 0;
    while (true) {
      while (bi < base.size()) {
        while (ri < ov.removed.size() && ov.removed[ri] < base[bi]) ++ri;
        if (ri < ov.removed.size() && ov.removed[ri] == base[bi]) {
          ++bi;
          ++ri;
          continue;
        }
        break;
      }
      const bool has_b = bi < base.size();
      const bool has_a = ai < ov.added.size();
      if (!has_b && !has_a) break;
      // added is disjoint from base \ removed, so no equal case exists.
      if (has_b && (!has_a || base[bi] < ov.added[ai])) {
        f(base[bi]);
        ++bi;
      } else {
        f(ov.added[ai]);
        ++ai;
      }
    }
  }

  /// Neighbors of \p u as a sorted vector (test/debug convenience).
  [[nodiscard]] std::vector<NodeId> neighbors_copy(NodeId u) const;

  /// Directed overlay entries currently held (added + removed, both
  /// directions of every undirected edge counted).
  [[nodiscard]] std::size_t overlay_edits() const noexcept {
    return overlay_edits_;
  }

  /// True when the overlay exceeds the compaction threshold.
  [[nodiscard]] bool compaction_due() const noexcept;

  /// Rebuilds base ∪ overlay into a fresh CSR snapshot and clears
  /// the overlay. O(n + m).
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
  struct Overlay {
    std::vector<NodeId> added;    ///< sorted, disjoint from base adjacency
    std::vector<NodeId> removed;  ///< sorted, subset of base adjacency
  };

  void check_node(NodeId u) const;
  [[nodiscard]] bool base_has(NodeId u, NodeId v) const;
  Overlay& overlay_for(NodeId u);
  /// Adds/removes one direction of an edge; returns the edit delta
  /// (+1: overlay grew, -1: an overlay entry cancelled out).
  int apply_half(NodeId u, NodeId v, bool add);

  Graph base_;  ///< CSR snapshot
  std::unordered_map<NodeId, Overlay> overlay_;
  std::vector<std::uint8_t> touched_;  ///< [u] != 0 ⇔ overlay_ has u
  std::size_t n_ = 0;
  std::size_t base_nodes_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t overlay_edits_ = 0;
  std::size_t compactions_ = 0;
  double compact_fraction_ = 0.25;
  std::size_t compact_min_edits_ = 1024;
};

}  // namespace mcds::graph
