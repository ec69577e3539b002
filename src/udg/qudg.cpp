#include "udg/qudg.hpp"

#include <cmath>
#include <stdexcept>

namespace mcds::udg {

using geom::Vec2;
using graph::Graph;
using graph::NodeId;

graph::Graph build_quasi_udg(std::span<const Vec2> points, double r_min,
                             double r_max, sim::Rng& rng) {
  if (!(r_min > 0.0) || r_min > r_max) {
    throw std::invalid_argument(
        "build_quasi_udg: need 0 < r_min <= r_max");
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  const double lo2 = r_min * r_min;
  const double hi2 = r_max * r_max;
  const double band = r_max - r_min;
  // Deterministic edge-candidate order (i < j ascending) so the same
  // seed always yields the same topology.
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      const double d2 = geom::dist2(points[i], points[j]);
      if (d2 > hi2) continue;
      if (d2 <= lo2) {
        edges.emplace_back(i, j);
        continue;
      }
      // Linearly decaying link probability across the gray zone; note
      // the variate is consumed only for gray-zone pairs.
      const double d = std::sqrt(d2);
      const double p = band > 0.0 ? (r_max - d) / band : 0.0;
      if (rng.uniform01() < p) edges.emplace_back(i, j);
    }
  }
  return Graph(points.size(), edges);
}

}  // namespace mcds::udg
