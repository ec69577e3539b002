#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace mcds::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, EdgelessGraph) {
  const Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, AddEdgeAndQuery) {
  const Graph g(4, test::Edges{{0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, NeighborsSortedAfterFinalize) {
  const Graph g(5, test::Edges{{2, 4}, {2, 0}, {2, 3}});
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 3u);
  EXPECT_EQ(nb[2], 4u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  const Graph g(3, test::Edges{{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, InvalidEdgesThrow) {
  EXPECT_THROW((void)Graph(3, test::Edges{{0, 3}}), std::invalid_argument);
  EXPECT_THROW((void)Graph(3, test::Edges{{3, 0}}), std::invalid_argument);
  EXPECT_THROW((void)Graph(3, test::Edges{{1, 1}}), std::invalid_argument);
  // Every entry is checked, not only the head of the list.
  EXPECT_THROW((void)Graph(3, test::Edges{{0, 1}, {1, 2}, {2, 3}}),
               std::invalid_argument);
  EXPECT_THROW((void)Graph(3, test::Edges{{0, 1}, {1, 2}, {2, 2}}),
               std::invalid_argument);
}

TEST(Graph, EdgeListConstructor) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, EdgesEnumeration) {
  Graph g = test::make_path(4);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, NodeId>{1, 2}));
  EXPECT_EQ(edges[2], (std::pair<NodeId, NodeId>{2, 3}));
}

TEST(Graph, CompleteGraphEdgeCount) {
  const Graph g = test::make_complete(7);
  EXPECT_EQ(g.num_edges(), 21u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 6u);
}

}  // namespace
}  // namespace mcds::graph
