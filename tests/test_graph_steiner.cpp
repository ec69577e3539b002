#include "graph/steiner.hpp"

#include <gtest/gtest.h>

#include "graph/subgraph.hpp"
#include "test_util.hpp"

namespace mcds::graph {
namespace {

TEST(ShortestPathAugment, BridgesPathEndpoints) {
  const Graph g = test::make_path(6);
  const auto added = shortest_path_augment(g, {0, 5});
  EXPECT_EQ(added.size(), 4u);
  std::vector<NodeId> all{0, 5};
  all.insert(all.end(), added.begin(), added.end());
  EXPECT_TRUE(is_connected_subset(g, all));
}

TEST(ShortestPathAugment, NoopWhenAlreadyConnected) {
  const Graph g = test::make_cycle(8);
  EXPECT_TRUE(shortest_path_augment(g, {2, 3, 4}).empty());
  EXPECT_TRUE(shortest_path_augment(g, {5}).empty());
}

TEST(ShortestPathAugment, PicksShortRoutes) {
  // Grid: connecting opposite corners of a 3x3 grid needs exactly 3
  // interior nodes (a 4-hop path).
  const Graph g = test::make_grid(3, 3);
  const auto added = shortest_path_augment(g, {0, 8});
  EXPECT_EQ(added.size(), 3u);
}

TEST(ShortestPathAugment, MultipleComponentsAllMerged) {
  const Graph g = test::make_path(9);
  const auto added = shortest_path_augment(g, {0, 4, 8});
  std::vector<NodeId> all{0, 4, 8};
  all.insert(all.end(), added.begin(), added.end());
  EXPECT_TRUE(is_connected_subset(g, all));
  EXPECT_EQ(added.size(), 6u);  // every interior node
}

TEST(ShortestPathAugment, Preconditions) {
  const Graph g = test::make_path(4);
  EXPECT_THROW((void)shortest_path_augment(g, {}), std::invalid_argument);
  EXPECT_THROW((void)shortest_path_augment(g, {9}), std::invalid_argument);
  const Graph disc = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)shortest_path_augment(disc, {0, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcds::graph
