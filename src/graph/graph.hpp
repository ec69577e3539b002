#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// \file graph.hpp
/// Undirected graph storage. This is the communication topology
/// G = (V, E) on which every CDS algorithm in the library runs.
///
/// Storage model: Graph is built through add_edge() into per-node build
/// lists, then finalize() compacts it into a CSR (compressed sparse row)
/// layout — one flat `offsets_` array of n+1 list boundaries and one
/// flat `neighbors_` array holding every adjacency consecutively. A
/// builder that already has those arrays (the unit-disk grid kernel)
/// hands them to from_csr() instead. All queries after finalize() read
/// the flat arrays, so a neighborhood scan is a single contiguous range
/// with no per-node heap indirection. FrozenGraph is the zero-cost view
/// of that layout the hot paths consume.

namespace mcds::graph {

/// Node identifier: dense 0-based index.
using NodeId = std::uint32_t;

/// An undirected simple graph over nodes 0..n-1.
///
/// Edges are staged by add_edge() and compacted by finalize() (the
/// edge-list constructor finalizes for you). Queries that require sorted
/// adjacency (has_edge) demand a finalized graph; the algorithms in this
/// library all operate on finalized graphs. Mutating a finalized graph
/// thaws it back into build lists transparently; call finalize() again
/// before handing it to an algorithm.
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph with \p n nodes.
  explicit Graph(std::size_t n) : n_(n), offsets_(n + 1, 0) {}

  /// Creates a graph from an explicit edge list.
  Graph(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges);

  /// Adopts ready CSR arrays: the neighbors of u are
  /// neighbors[offsets[u] .. offsets[u+1]). The result is finalized.
  /// One O(n + m) pass checks the shape and throws std::invalid_argument
  /// unless offsets has n+1 entries, starts at 0, never decreases and
  /// ends at neighbors.size(), and every row holds ids below n in
  /// strictly ascending order, without u itself. Symmetry (v in row u
  /// iff u in row v) is a precondition the check does not cover.
  [[nodiscard]] static Graph from_csr(std::vector<std::uint32_t> offsets,
                                      std::vector<NodeId> neighbors);

  /// Number of nodes.
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds the undirected edge {u, v}. Throws std::invalid_argument for
  /// out-of-range endpoints or self-loops. Duplicate edges are detected at
  /// finalize() time and removed (counted once).
  void add_edge(NodeId u, NodeId v);

  /// Sorts adjacency, removes duplicate edges and compacts the graph
  /// into the flat CSR arrays. Idempotent.
  void finalize();

  /// Neighbors of \p u in increasing order (after finalize()). Before
  /// finalize() the staged, unsorted build list is returned.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    if (finalized_) {
      check_node(u);
      return {neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    }
    return build_adj_.at(u);
  }

  /// Degree of \p u.
  [[nodiscard]] std::size_t degree(NodeId u) const {
    return neighbors(u).size();
  }

  /// True if the edge {u, v} exists. O(log deg) after finalize().
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// True if finalize() has been called since the last mutation.
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// All edges as (u, v) with u < v, lexicographic order.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// The CSR row-boundary array (size n+1, after finalize()).
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
    return offsets_;
  }

  /// The flat CSR adjacency array (size 2m, after finalize()).
  [[nodiscard]] std::span<const NodeId> flat_neighbors() const noexcept {
    return neighbors_;
  }

 private:
  friend class FrozenGraph;

  void check_node(NodeId u) const;
  /// Re-expands the CSR arrays into build lists so add_edge can mutate a
  /// finalized graph.
  void thaw();

  std::size_t n_ = 0;
  /// Staging adjacency, only populated between add_edge and finalize.
  std::vector<std::vector<NodeId>> build_adj_;
  /// CSR layout: neighbors of u are neighbors_[offsets_[u] .. offsets_[u+1]).
  std::vector<std::uint32_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::size_t num_edges_ = 0;
  bool finalized_ = true;  // an edgeless graph is trivially finalized
};

/// A non-owning, bounds-check-free view of a finalized Graph's CSR
/// arrays — three words, passed by value. This is what the hot loops
/// (MIS selection, connector gain scans, BFS, validation sweeps)
/// iterate: `for (NodeId v : fg.neighbors(u))` compiles to a scan over
/// one contiguous range. The viewed Graph must outlive the view.
class FrozenGraph {
 public:
  /// Implicit on purpose: algorithms take `const Graph&` at the API
  /// boundary and drop to the frozen view internally. Throws
  /// std::logic_error if \p g is not finalized.
  FrozenGraph(const Graph& g);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {neighbors_ + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return offsets_[u + 1] - offsets_[u];
  }

  /// True if the edge {u, v} exists. O(log deg).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

 private:
  const std::uint32_t* offsets_ = nullptr;
  const NodeId* neighbors_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace mcds::graph
