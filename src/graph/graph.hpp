#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// \file graph.hpp
/// Undirected graph storage. This is the communication topology
/// G = (V, E) on which every CDS algorithm in the library runs.
///
/// Storage model: a Graph is a CSR (compressed sparse row) layout from
/// the moment it is constructed — one flat `offsets_` array of n+1 list
/// boundaries and one flat `neighbors_` array holding every adjacency
/// consecutively, each row ascending. The edge-list constructor writes
/// those arrays in one count / scatter / sort pass; a builder that
/// already has them (the unit-disk grid kernel, induced subgraphs, the
/// delta overlay) hands them to from_csr() instead. A Graph is
/// immutable: a neighborhood scan is a single contiguous range with no
/// per-node heap indirection. FrozenGraph is the zero-cost view of that
/// layout the hot paths consume.

namespace mcds::graph {

/// Node identifier: dense 0-based index.
using NodeId = std::uint32_t;

/// An undirected simple graph over nodes 0..n-1, immutable once built.
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph with \p n nodes.
  explicit Graph(std::size_t n) : n_(n), offsets_(n + 1, 0) {}

  /// Creates a graph from an explicit edge list, in any order and
  /// orientation; duplicate edges are counted once. Throws
  /// std::invalid_argument for an out-of-range endpoint or a self-loop,
  /// and std::length_error if the adjacency exceeds the 32-bit CSR.
  Graph(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges);

  /// Adopts ready CSR arrays: the neighbors of u are
  /// neighbors[offsets[u] .. offsets[u+1]).
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

  /// Neighbors of \p u in increasing order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    check_node(u);
    return {neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// Degree of \p u.
  [[nodiscard]] std::size_t degree(NodeId u) const {
    return neighbors(u).size();
  }

  /// True if the edge {u, v} exists. O(log deg).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges as (u, v) with u < v, lexicographic order.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// The CSR row-boundary array (size n+1).
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
    return offsets_;
  }

  /// The flat CSR adjacency array (size 2m).
  [[nodiscard]] std::span<const NodeId> flat_neighbors() const noexcept {
    return neighbors_;
  }

 private:
  friend class FrozenGraph;

  void check_node(NodeId u) const;

  std::size_t n_ = 0;
  /// CSR layout: neighbors of u are neighbors_[offsets_[u] .. offsets_[u+1]).
  std::vector<std::uint32_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::size_t num_edges_ = 0;
};

/// A non-owning, bounds-check-free view of a Graph's CSR
/// arrays — three words, passed by value. This is what the hot loops
/// (MIS selection, connector gain scans, BFS, validation sweeps)
/// iterate: `for (NodeId v : fg.neighbors(u))` compiles to a scan over
/// one contiguous range. The viewed Graph must outlive the view.
class FrozenGraph {
 public:
  /// Implicit on purpose: algorithms take `const Graph&` at the API
  /// boundary and drop to the frozen view internally.
  FrozenGraph(const Graph& g) noexcept  // NOLINT(google-explicit-constructor)
      : offsets_(g.offsets_.data()), neighbors_(g.neighbors_.data()),
        n_(g.n_) {}

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
