#include "graph/traversal.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace mcds::graph {
namespace {

TEST(Bfs, PathLevelsAndParents) {
  const Graph g = test::make_path(5);
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.order, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.level[v], v);
  EXPECT_EQ(r.parent[0], kNoNode);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(r.parent[v], v - 1);
}

TEST(Bfs, StarFromCenterAndLeaf) {
  const Graph g = test::make_star(6);
  const BfsResult from_center = bfs(g, 0);
  EXPECT_EQ(from_center.level[0], 0u);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(from_center.level[v], 1u);
  const BfsResult from_leaf = bfs(g, 3);
  EXPECT_EQ(from_leaf.level[3], 0u);
  EXPECT_EQ(from_leaf.level[0], 1u);
  EXPECT_EQ(from_leaf.level[1], 2u);
}

TEST(Bfs, DeterministicNeighborOrder) {
  const Graph g = test::make_graph(4, {{0, 3}, {0, 1}, {0, 2}});
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.order, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Bfs, UnreachableNodesMarked) {
  const Graph g = test::make_graph(4, {{0, 1}, {2, 3}});
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.reached(), 2u);
  EXPECT_EQ(r.level[2], kNoNode);
  EXPECT_EQ(r.parent[3], kNoNode);
}

TEST(Bfs, RootOutOfRangeThrows) {
  const Graph g(2);
  EXPECT_THROW((void)bfs(g, 5), std::invalid_argument);
}

TEST(Components, CountsAndLabels) {
  const Graph g = test::make_graph(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto [label, count] = connected_components(g);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[4], label[5]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[3], label[4]);
}

TEST(Components, LabelOrderIsBySmallestNode) {
  const Graph g = test::make_graph(4, {{2, 3}});
  const auto [label, count] = connected_components(g);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(label[0], 0u);
  EXPECT_EQ(label[1], 1u);
  EXPECT_EQ(label[2], 2u);
  EXPECT_EQ(label[3], 2u);
}

TEST(IsConnected, Basics) {
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_TRUE(is_connected(Graph{1}));
  EXPECT_TRUE(is_connected(test::make_cycle(4)));
  const Graph g = test::make_graph(3, {{0, 1}});
  EXPECT_FALSE(is_connected(g));
}

TEST(Diameter, KnownGraphs) {
  EXPECT_EQ(diameter_hops(test::make_path(6)), 5u);
  EXPECT_EQ(diameter_hops(test::make_cycle(6)), 3u);
  EXPECT_EQ(diameter_hops(test::make_star(9)), 2u);
  EXPECT_EQ(diameter_hops(test::make_complete(5)), 1u);
  EXPECT_EQ(diameter_hops(Graph{1}), 0u);
  EXPECT_EQ(diameter_hops(test::make_grid(3, 4)), 5u);
}

TEST(Diameter, DisconnectedThrows) {
  const Graph g = test::make_graph(3, {{0, 1}});
  EXPECT_THROW((void)diameter_hops(g), std::invalid_argument);
}

TEST(ShortestPath, GridPath) {
  const Graph g = test::make_grid(4, 4);
  const auto path = shortest_path(g, 0, 15);
  ASSERT_EQ(path.size(), 7u);  // 6 hops
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 15u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(ShortestPath, UnreachableReturnsEmpty) {
  const Graph g = test::make_graph(3, {{0, 1}});
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
  EXPECT_EQ(shortest_path(g, 1, 1), (std::vector<NodeId>{1}));
}

TEST(HopDistances, MatchBfsLevels) {
  const Graph g = test::make_grid(3, 3);
  const auto d = hop_distances(g, 4);  // center
  EXPECT_EQ(d[4], 0u);
  EXPECT_EQ(d[0], 2u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[8], 2u);
}

}  // namespace
}  // namespace mcds::graph
