#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

/// \file cell_grid.hpp
/// The grid kernel behind every bulk unit-disk graph build: the serial
/// and pooled build_udg overloads and GridIndex::build_graph all run
/// grid_udg. Working memory is O(n + m) whatever the coordinate spread:
/// cells are located by sorting, never by an array over the bounding box.

namespace mcds::par {
class ThreadPool;
}  // namespace mcds::par

namespace mcds::udg {

/// A grid cell in full 64-bit coordinates.
struct Cell {
  std::int64_t x = 0;
  std::int64_t y = 0;
};

/// The cell rule every grid in this module uses: p lies in cell
/// (floor(p.x / radius), floor(p.y / radius)), so two points within
/// \p radius of each other lie in the same or adjacent cells.
[[nodiscard]] inline Cell grid_cell(geom::Vec2 p, double radius) noexcept {
  return {static_cast<std::int64_t>(std::floor(p.x / radius)),
          static_cast<std::int64_t>(std::floor(p.y / radius))};
}

/// The unit-disk graph over \p points (closed disk: an edge iff
/// dist2 <= radius²), built straight into CSR: points are ordered by
/// cell, a count pass over each point's 3×3 cell neighbourhood gives the
/// row offsets, and a fill pass writes and sorts each row before
/// graph::Graph::from_csr adopts both arrays. Only ids whose \p alive
/// flag is non-zero take part (every id when \p alive is empty); the
/// others get empty rows. Both passes are fanned over \p pool in chunks
/// sized from the point count and the pool size; a null pool runs them
/// inline. The CSR is the same for every pool. Throws
/// std::invalid_argument unless \p radius is positive, and
/// std::length_error when the adjacency exceeds the 32-bit CSR.
[[nodiscard]] graph::Graph grid_udg(std::span<const geom::Vec2> points,
                                    double radius,
                                    std::span<const std::uint8_t> alive,
                                    par::ThreadPool* pool);

}  // namespace mcds::udg
