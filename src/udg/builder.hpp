#pragma once

#include <span>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

/// \file builder.hpp
/// Unit-disk graph construction: nodes are points; {u, v} is an edge iff
/// |uv| <= radius. The grid kernel of cell_grid.hpp makes construction
/// O(n log n + m) (vs the naive O(n^2)).

namespace mcds::par {
class ThreadPool;
}  // namespace mcds::par

namespace mcds::udg {

/// Builds the unit-disk graph over \p points with communication radius
/// \p radius (default 1, the paper's normalization). Points exactly at
/// distance `radius` are connected (closed-disk model, matching the
/// paper's "distance at most one").
[[nodiscard]] graph::Graph build_udg(std::span<const geom::Vec2> points,
                                     double radius = 1.0);

/// build_udg with the kernel's count and fill passes — the O(n · density)
/// distance tests, the dominant cost — fanned over \p pool. Every row is
/// written by one task and sorted, so the result is bit-identical to the
/// serial builder at every thread count.
[[nodiscard]] graph::Graph build_udg(std::span<const geom::Vec2> points,
                                     double radius, par::ThreadPool& pool);

/// Reference quadratic implementation, used to cross-check build_udg in
/// tests.
[[nodiscard]] graph::Graph build_udg_naive(std::span<const geom::Vec2> points,
                                           double radius = 1.0);

}  // namespace mcds::udg
