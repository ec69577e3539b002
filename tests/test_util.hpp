#pragma once

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"

/// \file test_util.hpp
/// Shared graph constructors for the test suites.

namespace mcds::test {

using graph::Graph;
using graph::NodeId;

/// True when \p a and \p b hold byte-identical CSR arrays.
inline bool same_csr(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.flat_neighbors(), b.flat_neighbors());
}

/// Graph on n nodes from an inline edge list.
inline Graph make_graph(std::size_t n,
                        std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

/// Path graph 0-1-2-...-(n-1).
inline Graph make_path(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

/// Cycle graph on n >= 3 nodes.
inline Graph make_cycle(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  g.finalize();
  return g;
}

/// Star graph: node 0 adjacent to 1..n-1.
inline Graph make_star(std::size_t n) {
  Graph g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(0, i);
  g.finalize();
  return g;
}

/// Complete graph K_n.
inline Graph make_complete(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  g.finalize();
  return g;
}

/// w x h grid graph (4-neighborhood).
inline Graph make_grid(std::size_t w, std::size_t h) {
  Graph g(w * h);
  const auto id = [w](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * w + x);
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1));
    }
  }
  g.finalize();
  return g;
}

}  // namespace mcds::test
