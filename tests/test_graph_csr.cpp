// Differential tests for the CSR graph storage: the flat
// offsets_/neighbors_ layout must present exactly the adjacency of the
// input edge list, on random unit-disk graphs and on the degenerate
// shapes where an off-by-one in the row boundaries would hide (isolated
// nodes, complete graphs, a single node, the empty graph). Graph::from_csr
// must accept exactly the shapes the edge-list constructor produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::graph::FrozenGraph;
using mcds::graph::Graph;
using mcds::graph::NodeId;
using mcds::test::Edges;

// Every pair of points at most one apart: a UDG's edge list, by brute
// force.
Edges udg_edges(const std::vector<mcds::geom::Vec2>& pts) {
  Edges edges;
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = u + 1; v < pts.size(); ++v) {
      if (mcds::geom::dist2(pts[u], pts[v]) <= 1.0) edges.emplace_back(u, v);
    }
  }
  return edges;
}

// The CSR must hold, node by node, exactly the neighbor set the input
// edge list gives (duplicates collapsed), each row sorted ascending.
void expect_csr_matches(const Graph& g, const Edges& edges) {
  std::vector<std::vector<NodeId>> want(g.num_nodes());
  for (const auto& [u, v] : edges) {
    want[u].push_back(v);
    want[v].push_back(u);
  }
  const FrozenGraph fg(g);
  ASSERT_EQ(fg.num_nodes(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto& row_want = want[u];
    std::sort(row_want.begin(), row_want.end());
    row_want.erase(std::unique(row_want.begin(), row_want.end()),
                   row_want.end());
    const auto row = fg.neighbors(u);
    EXPECT_EQ(fg.degree(u), row_want.size()) << "node " << u;
    EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), row_want)
        << "node " << u;
  }
}

TEST(GraphCsr, OffsetsInvariants) {
  const auto inst = mcds::udg::generate_instance({.nodes = 300}, 7);
  const Graph& g = inst.graph;
  const auto offsets = g.offsets();
  ASSERT_EQ(offsets.size(), g.num_nodes() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
  EXPECT_EQ(offsets.back(), 2 * g.num_edges());
  EXPECT_EQ(g.flat_neighbors().size(), 2 * g.num_edges());
}

TEST(GraphCsr, DifferentialRandomUdg) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 200, .side = 12.0}, seed);
    expect_csr_matches(inst.graph, udg_edges(inst.points));
  }
}

TEST(GraphCsr, DifferentialBfsOrders) {
  // BFS order exercises row boundaries in visit order; a graph rebuilt
  // from the brute-force edge list must induce the same traversal.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 150, .side = 9.0}, seed);
    const auto& g = inst.graph;
    const Graph rebuilt(g.num_nodes(), udg_edges(inst.points));
    const auto a = mcds::graph::bfs(g, 0);
    const auto b = mcds::graph::bfs(rebuilt, 0);
    EXPECT_EQ(a.order, b.order) << "seed " << seed;
    EXPECT_EQ(a.parent, b.parent) << "seed " << seed;
    EXPECT_EQ(a.level, b.level) << "seed " << seed;
  }
}

TEST(GraphCsr, IsolatedNodesHaveEmptyRows) {
  const Graph g = mcds::test::make_graph(5, {{1, 3}});
  expect_csr_matches(g, {{1, 3}});
  const FrozenGraph fg(g);
  for (const NodeId u : {0u, 2u, 4u}) {
    EXPECT_EQ(fg.degree(u), 0u);
    EXPECT_TRUE(fg.neighbors(u).empty());
  }
  EXPECT_EQ(fg.degree(1), 1u);
  EXPECT_EQ(fg.neighbors(3).front(), 1u);
}

TEST(GraphCsr, CompleteGraph) {
  constexpr std::size_t n = 17;
  Edges edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  const Graph g(n, edges);
  EXPECT_EQ(g.num_edges(), n * (n - 1) / 2);
  expect_csr_matches(g, edges);
  const FrozenGraph fg(g);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(fg.degree(u), n - 1);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(fg.has_edge(u, v), u != v);
    }
  }
}

TEST(GraphCsr, SingleNodeAndEmptyGraph) {
  const Graph one(1);
  expect_csr_matches(one, {});
  EXPECT_EQ(FrozenGraph(one).degree(0), 0u);

  const Graph empty;
  const FrozenGraph fg(empty);
  EXPECT_EQ(fg.num_nodes(), 0u);
  expect_csr_matches(empty, {});
}

TEST(GraphCsr, DuplicateEdgesCollapse) {
  const Graph g(3, Edges{{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  // Each UDG edge three times — as is, reversed, and as is again — in a
  // shuffled list must build exactly the plain list's CSR.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 150, .side = 9.0}, seed);
    const Edges plain = udg_edges(inst.points);
    Edges noisy;
    for (const auto& [u, v] : plain) {
      noisy.emplace_back(u, v);
      noisy.emplace_back(v, u);
      noisy.emplace_back(u, v);
    }
    mcds::sim::Rng rng(seed);
    rng.shuffle(noisy);
    const Graph built(inst.points.size(), noisy);
    EXPECT_EQ(built.num_edges(), plain.size()) << "seed " << seed;
    expect_csr_matches(built, plain);
  }
}

TEST(GraphCsr, FromCsrAdoptsTheEdgeListBuild) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 150, .side = 9.0}, seed);
    const Graph built(inst.points.size(), udg_edges(inst.points));
    const auto offsets = built.offsets();
    const auto neighbors = built.flat_neighbors();
    const Graph adopted = Graph::from_csr({offsets.begin(), offsets.end()},
                                          {neighbors.begin(), neighbors.end()});
    EXPECT_TRUE(mcds::test::same_csr(adopted, built)) << "seed " << seed;
    EXPECT_EQ(adopted.num_nodes(), built.num_nodes());
    EXPECT_EQ(adopted.num_edges(), built.num_edges());
    EXPECT_EQ(adopted.edges(), built.edges());
  }
  const Graph empty = Graph::from_csr({0}, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
}

TEST(GraphCsr, FromCsrRejectsMalformedShapes) {
  struct Case {
    const char* what;
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> neighbors;
  };
  // The well-formed path 0-1-2 is {0, 1, 3, 4} / {1, 0, 2, 1}.
  const std::vector<Case> cases{
      {"no offsets", {}, {}},
      {"offsets start above 0", {1, 1, 3, 4}, {1, 0, 2, 1}},
      {"offsets decrease", {0, 3, 1, 4}, {1, 0, 2, 1}},
      {"offsets end short of neighbors", {0, 1, 3, 3}, {1, 0, 2, 1}},
      {"offsets end past neighbors", {0, 1, 3, 5}, {1, 0, 2, 1}},
      {"id out of range", {0, 1, 3, 4}, {1, 0, 3, 1}},
      {"self-loop", {0, 1, 3, 4}, {1, 1, 2, 1}},
      {"row descending", {0, 1, 3, 4}, {1, 2, 0, 1}},
      {"row with a repeat", {0, 1, 3, 4}, {1, 0, 0, 1}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW((void)Graph::from_csr(c.offsets, c.neighbors),
                 std::invalid_argument)
        << c.what;
  }
  EXPECT_NO_THROW((void)Graph::from_csr({0, 1, 3, 4}, {1, 0, 2, 1}));
}

}  // namespace
