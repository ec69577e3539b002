#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::graph {
namespace {

TEST(InducedSubgraph, CycleMinusOneNodeIsPath) {
  const Graph g = test::make_cycle(5);
  const std::vector<NodeId> keep{0, 1, 2, 3};
  const auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 4u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  EXPECT_EQ(sub.mapping, keep);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_FALSE(sub.graph.has_edge(0, 3));
}

TEST(InducedSubgraph, MappingRoundTrips) {
  const Graph grid = test::make_grid(3, 3);
  const auto inst = udg::generate_instance({.nodes = 150, .side = 9.0}, 3);
  std::vector<NodeId> shuffled(inst.graph.num_nodes());
  std::iota(shuffled.begin(), shuffled.end(), NodeId{0});
  sim::Rng rng(17);
  rng.shuffle(shuffled);
  shuffled.resize(100);
  // Node lists in any order, so a row's new ids need not ascend.
  const std::vector<std::pair<const Graph*, std::vector<NodeId>>> cases{
      {&grid, {8, 4, 0}}, {&grid, {8, 5, 4, 7}}, {&inst.graph, shuffled}};
  for (const auto& [g, keep] : cases) {
    const auto sub = induced_subgraph(*g, keep);
    EXPECT_EQ(sub.mapping, keep);
    // Edges in the subgraph must exist between the mapped originals.
    for (NodeId u = 0; u < sub.graph.num_nodes(); ++u) {
      for (const NodeId v : sub.graph.neighbors(u)) {
        EXPECT_TRUE(g->has_edge(sub.mapping[u], sub.mapping[v]));
      }
    }
    // And the CSR is the edge-list build of g's edges between members,
    // renamed to positions in `keep`.
    std::vector<NodeId> pos(g->num_nodes(), kNoNode);
    for (NodeId i = 0; i < keep.size(); ++i) pos[keep[i]] = i;
    test::Edges mapped;
    for (const auto& [u, v] : g->edges()) {
      if (pos[u] != kNoNode && pos[v] != kNoNode) {
        mapped.emplace_back(pos[u], pos[v]);
      }
    }
    EXPECT_TRUE(test::same_csr(sub.graph, Graph(keep.size(), mapped)));
  }
}

TEST(InducedSubgraph, RejectsBadInput) {
  const Graph g = test::make_path(4);
  const std::vector<NodeId> dup{1, 1};
  EXPECT_THROW((void)induced_subgraph(g, dup), std::invalid_argument);
  const std::vector<NodeId> oob{1, 9};
  EXPECT_THROW((void)induced_subgraph(g, oob), std::invalid_argument);
}

TEST(SubsetConnectivity, PathSubsets) {
  const Graph g = test::make_path(6);
  EXPECT_TRUE(is_connected_subset(g, std::vector<NodeId>{1, 2, 3}));
  EXPECT_FALSE(is_connected_subset(g, std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(is_connected_subset(g, std::vector<NodeId>{}));
  EXPECT_TRUE(is_connected_subset(g, std::vector<NodeId>{4}));
}

TEST(SubsetComponents, CountsComponents) {
  const Graph g = test::make_path(7);
  EXPECT_EQ(count_components_subset(g, std::vector<NodeId>{0, 1, 3, 5, 6}),
            3u);
  EXPECT_EQ(count_components_subset(g, std::vector<NodeId>{}), 0u);
  const auto [labels, count] =
      subset_components(g, std::vector<NodeId>{0, 1, 3, 5, 6});
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(labels[0], labels[1]);  // {0,1}
  EXPECT_NE(labels[1], labels[2]);  // {3}
  EXPECT_EQ(labels[3], labels[4]);  // {5,6}
}

TEST(SubsetComponents, StarCenterJoinsAll) {
  const Graph g = test::make_star(6);
  EXPECT_EQ(count_components_subset(g, std::vector<NodeId>{1, 2, 3}), 3u);
  EXPECT_EQ(count_components_subset(g, std::vector<NodeId>{0, 1, 2, 3}), 1u);
}

}  // namespace
}  // namespace mcds::graph
