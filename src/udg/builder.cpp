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
  std::vector<std::pair<NodeId, NodeId>> edges;
  const double r2 = radius * radius;
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      if (geom::dist2(points[i], points[j]) <= r2) edges.emplace_back(i, j);
    }
  }
  return Graph(points.size(), edges);
}

}  // namespace mcds::udg
