#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"

/// \file grid_index.hpp
/// The persistent half of build_udg. The batch builder sorts every
/// point into radius-sized cells, sweeps the 3×3 neighborhood, and
/// throws the whole grid away; under churn that is O(n) of rebuilt state
/// per event. GridIndex keeps a hashed cell → point map (same cell rule,
/// udg::grid_cell) across events: insert, move, erase and revive each
/// touch only the O(1) cells around the affected point and append the
/// *exact* set of unit-disk edges that appeared or vanished to a caller's
/// graph::EdgeDelta, which is what the incremental CDS engine consumes.
/// Node ids are stable and never reused; a node erased from the index
/// keeps its id and position slot and can be revived (fail-stop churn: a
/// crashed radio still rides its vehicle).

namespace mcds::udg {

using graph::NodeId;

class GridIndex {
 public:
  /// An empty index with the given communication radius (> 0).
  explicit GridIndex(double radius);

  /// Bulk-loads \p points (all alive), ids 0..n-1 in order.
  GridIndex(std::span<const geom::Vec2> points, double radius);

  /// Adds a new alive node at \p p and returns its id (== size() before
  /// the call). Every event appends to \p delta the exact unit-disk edges
  /// it created/destroyed, canonical (u < v) and sorted.
  NodeId insert(geom::Vec2 p, graph::EdgeDelta& delta);

  /// Repositions the alive node \p v.
  void move(NodeId v, geom::Vec2 p, graph::EdgeDelta& delta);

  /// Marks the alive node \p v dead: it leaves the grid and every
  /// incident edge is removed. Its id and position remain.
  void erase(NodeId v, graph::EdgeDelta& delta);

  /// Returns the dead node \p v to the grid at position \p p.
  void revive(NodeId v, geom::Vec2 p, graph::EdgeDelta& delta);

  /// Total ids ever issued (alive + dead).
  [[nodiscard]] std::size_t size() const noexcept { return pos_.size(); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_count_;
  }
  [[nodiscard]] bool alive(NodeId v) const { return alive_.at(v) != 0; }
  [[nodiscard]] geom::Vec2 position(NodeId v) const { return pos_.at(v); }
  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// Per-node liveness flags, indexed by id.
  [[nodiscard]] const std::vector<std::uint8_t>& alive_flags() const noexcept {
    return alive_;
  }

  /// Ids of alive nodes, ascending.
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

  /// Alive nodes within the radius of \p p (excluding \p exclude; pass
  /// graph::kNoNode-like sentinel size() to exclude nothing), sorted
  /// ascending into \p out.
  void alive_in_range(geom::Vec2 p, NodeId exclude,
                      std::vector<NodeId>& out) const;

  /// Current unit-disk neighbors of the alive node \p v, sorted.
  void alive_neighbors(NodeId v, std::vector<NodeId>& out) const;

  /// The unit-disk graph over the alive nodes, on the full id space
  /// (dead nodes are isolated). It runs build_udg's kernel (grid_udg)
  /// over the positions, so the CSR is identical to what build_udg
  /// produces for the same alive positions.
  [[nodiscard]] graph::Graph build_graph() const;

  /// Number of occupied grid cells (diagnostics).
  [[nodiscard]] std::size_t occupied_cells() const noexcept {
    return cells_.size();
  }

 private:
  [[nodiscard]] std::uint64_t cell_of(geom::Vec2 p) const noexcept;
  void cell_insert(std::uint64_t key, NodeId v);
  void cell_erase(std::uint64_t key, NodeId v);
  void check_alive(NodeId v, bool want_alive, const char* what) const;

  double radius_ = 1.0;
  double r2_ = 1.0;
  /// Cell → alive node ids, each vector kept id-sorted so neighborhood
  /// scans and delta emission are deterministic.
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  std::vector<geom::Vec2> pos_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_ = 0;
};

}  // namespace mcds::udg
