#pragma once

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// \file test_util.hpp
/// Shared graph constructors for the test suites.

namespace mcds::test {

using graph::Graph;
using graph::NodeId;
/// An edge list, as Graph(n, edges) takes it.
using Edges = std::vector<std::pair<NodeId, NodeId>>;

/// True when \p a and \p b hold byte-identical CSR arrays.
inline bool same_csr(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.flat_neighbors(), b.flat_neighbors());
}

/// Graph on n nodes from an inline edge list.
inline Graph make_graph(std::size_t n,
                        std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  return Graph(n, edges);
}

/// Path graph 0-1-2-...-(n-1).
inline Graph make_path(std::size_t n) {
  Edges edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, edges);
}

/// Cycle graph on n >= 3 nodes.
inline Graph make_cycle(std::size_t n) {
  Edges edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(static_cast<NodeId>(n - 1), 0);
  return Graph(n, edges);
}

/// Star graph: node 0 adjacent to 1..n-1.
inline Graph make_star(std::size_t n) {
  Edges edges;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph(n, edges);
}

/// Complete graph K_n.
inline Graph make_complete(std::size_t n) {
  Edges edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Graph(n, edges);
}

/// w x h grid graph (4-neighborhood).
inline Graph make_grid(std::size_t w, std::size_t h) {
  Edges edges;
  const auto id = [w](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * w + x);
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < h) edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  return Graph(w * h, edges);
}

}  // namespace mcds::test
