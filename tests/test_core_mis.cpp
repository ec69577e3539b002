#include "core/mis.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/validate.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::core {
namespace {

TEST(FirstFitMis, PathFromEnd) {
  const Graph g = test::make_path(5);
  std::vector<NodeId> order{0, 1, 2, 3, 4};
  const MisResult r = first_fit_mis(g, order);
  EXPECT_EQ(r.mis, (std::vector<NodeId>{0, 2, 4}));
  EXPECT_TRUE(r.in_mis[0]);
  EXPECT_FALSE(r.in_mis[1]);
}

TEST(FirstFitMis, OrderMatters) {
  const Graph g = test::make_path(4);
  const std::vector<NodeId> inner_first{1, 2, 0, 3};
  const MisResult r = first_fit_mis(g, inner_first);
  EXPECT_EQ(r.mis, (std::vector<NodeId>{1, 3}));
}

TEST(FirstFitMis, RejectsBadOrder) {
  const Graph g = test::make_path(3);
  const std::vector<NodeId> dup{0, 0};
  EXPECT_THROW((void)first_fit_mis(g, dup), std::invalid_argument);
  const std::vector<NodeId> oob{7};
  EXPECT_THROW((void)first_fit_mis(g, oob), std::invalid_argument);
}

TEST(BfsFirstFitMis, RootAlwaysJoins) {
  const Graph g = test::make_grid(4, 4);
  for (NodeId root : {0u, 5u, 15u}) {
    const MisResult r = bfs_first_fit_mis(g, root);
    EXPECT_TRUE(r.in_mis[root]);
    EXPECT_EQ(r.bfs.root, root);
  }
}

TEST(BfsFirstFitMis, RequiresConnected) {
  const graph::Graph g = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)bfs_first_fit_mis(g, 0), std::invalid_argument);
  EXPECT_THROW((void)bfs_first_fit_mis(graph::Graph{}, 0),
               std::invalid_argument);
}

TEST(BfsFirstFitMis, SingleNode) {
  const graph::Graph g(1);
  const MisResult r = bfs_first_fit_mis(g, 0);
  EXPECT_EQ(r.mis, (std::vector<NodeId>{0}));
}

TEST(LowestIdMis, WorksOnDisconnected) {
  const graph::Graph g = test::make_graph(4, {{0, 1}, {2, 3}});
  const MisResult r = lowest_id_mis(g);
  EXPECT_EQ(r.mis, (std::vector<NodeId>{0, 2}));
}

TEST(MaxDegreeMis, PrefersHubs) {
  const Graph g = test::make_star(7);
  const MisResult r = max_degree_mis(g);
  EXPECT_EQ(r.mis, (std::vector<NodeId>{0}));  // center first, blocks leaves
}

// Property sweep over random connected UDGs: every MIS variant must be
// independent and maximal; the BFS first-fit MIS must additionally have
// the 2-hop separation property (Lemma 9's prerequisite).
class MisProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MisProperties, AllVariantsValid) {
  udg::InstanceParams params;
  params.nodes = 60;
  params.side = 7.0;
  const auto inst = udg::generate_largest_component_instance(params,
                                                             GetParam());
  const Graph& g = inst.graph;

  for (const MisResult& r :
       {bfs_first_fit_mis(g, 0), lowest_id_mis(g), max_degree_mis(g)}) {
    EXPECT_TRUE(is_independent_set(g, r.mis));
    EXPECT_TRUE(is_maximal_independent_set(g, r.mis));
    // in_mis flags agree with the list.
    std::size_t flagged = 0;
    for (const bool b : r.in_mis) flagged += b ? 1 : 0;
    EXPECT_EQ(flagged, r.mis.size());
  }

  const MisResult bfs_mis = bfs_first_fit_mis(g, 0);
  std::vector<std::size_t> rank(g.num_nodes(), 0);
  for (std::size_t i = 0; i < bfs_mis.bfs.order.size(); ++i) {
    rank[bfs_mis.bfs.order[i]] = i;
  }
  EXPECT_TRUE(has_two_hop_separation(g, bfs_mis.mis, rank, 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisProperties,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace mcds::core
