#include "udg/builder.hpp"

#include <stdexcept>

#include "udg/cell_grid.hpp"

namespace mcds::udg {

using geom::Vec2;
using graph::Graph;
using graph::NodeId;

Graph build_udg(std::span<const Vec2> points, double radius) {
  return grid_udg(points, radius, {}, nullptr);
}

Graph build_udg(std::span<const Vec2> points, double radius,
                par::ThreadPool& pool) {
  return grid_udg(points, radius, {}, &pool);
}

Graph build_udg_naive(std::span<const Vec2> points, double radius) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("build_udg_naive: radius must be positive");
  }
  Graph g(points.size());
  const double r2 = radius * radius;
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      if (geom::dist2(points[i], points[j]) <= r2) g.add_edge(i, j);
    }
  }
  g.finalize();
  return g;
}

}  // namespace mcds::udg
