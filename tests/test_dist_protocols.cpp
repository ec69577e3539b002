#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/mis.hpp"
#include "core/validate.hpp"
#include "dist/distributed_cds.hpp"
#include "graph/traversal.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::dist {
namespace {

TEST(LeaderElection, FindsMinimumId) {
  const Graph g = test::make_grid(4, 3);
  const LeaderResult r = elect_leader(g);
  EXPECT_EQ(r.leader, 0u);
  EXPECT_GT(r.stats.messages, 0u);
}

TEST(LeaderElection, DisconnectedThrows) {
  const graph::Graph g = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)elect_leader(g), std::invalid_argument);
}

TEST(BfsTree, MatchesCentralizedLevels) {
  const Graph g = test::make_grid(5, 4);
  const BfsTreeResult r = build_bfs_tree(g, 7);
  const auto central = graph::bfs(g, 7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(r.level[v], central.level[v]) << "node " << v;
  }
  EXPECT_EQ(r.parent[7], graph::kNoNode);
  // Parents are one level lower and adjacent.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 7) continue;
    EXPECT_TRUE(g.has_edge(v, r.parent[v]));
    EXPECT_EQ(r.level[r.parent[v]] + 1, r.level[v]);
  }
}

TEST(BfsTree, Preconditions) {
  const graph::Graph g = test::make_graph(3, {{0, 1}});
  EXPECT_THROW((void)build_bfs_tree(g, 0), std::invalid_argument);
  EXPECT_THROW((void)build_bfs_tree(test::make_path(3), 9),
               std::invalid_argument);
}

TEST(MisElection, MatchesCentralizedRankOrderFirstFit) {
  udg::InstanceParams params;
  params.nodes = 70;
  params.side = 7.0;
  const auto inst = udg::generate_largest_component_instance(params, 3);
  const Graph& g = inst.graph;
  const auto tree = build_bfs_tree(g, 0);
  const auto elected = elect_mis(g, tree.level);

  // Centralized reference: first-fit over nodes sorted by (level, id).
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return tree.level[a] < tree.level[b];
  });
  auto expected = core::first_fit_mis(g, order).mis;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(elected.mis, expected);  // elected list is ascending id
  EXPECT_TRUE(core::is_maximal_independent_set(g, elected.mis));
}

TEST(MisElection, LevelSizeMismatchThrows) {
  const Graph g = test::make_path(3);
  std::vector<NodeId> bad_levels{0, 1};
  EXPECT_THROW((void)elect_mis(g, bad_levels), std::invalid_argument);
}

TEST(DistributedCds, SingleAndTwoNodes) {
  const graph::Graph one(1);
  const auto r1 = distributed_waf_cds(one);
  EXPECT_EQ(r1.cds, (std::vector<NodeId>{0}));
  EXPECT_EQ(r1.total.messages, 0u);

  const Graph two = test::make_path(2);
  const auto r2 = distributed_waf_cds(two);
  EXPECT_TRUE(core::is_cds(two, r2.cds));
  EXPECT_EQ(r2.leader, 0u);
}

TEST(DistributedCds, EmptyGraphThrows) {
  EXPECT_THROW((void)distributed_waf_cds(graph::Graph{}),
               std::invalid_argument);
}

// Property sweep: the end-to-end distributed construction must produce a
// valid CDS whose dominators form a maximal independent set, across
// random topologies and densities.
class DistributedCdsRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DistributedCdsRandom, ProducesValidCds) {
  udg::InstanceParams params;
  params.nodes = 50 + (GetParam() % 3) * 30;
  params.side = 5.0 + static_cast<double>(GetParam() % 4) * 1.5;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 37);
  const Graph& g = inst.graph;
  const auto r = distributed_waf_cds(g);
  EXPECT_TRUE(core::is_cds(g, r.cds)) << "n=" << g.num_nodes();
  EXPECT_TRUE(core::is_maximal_independent_set(g, r.mis.mis));
  EXPECT_EQ(r.leader, 0u);

  // Message complexity sanity: every phase is O(n + m)-ish; leader
  // election by flooding is O(n * m) worst case. Just check an ample
  // polynomial envelope to catch runaway protocols.
  const std::size_t n = g.num_nodes(), m = g.num_edges();
  EXPECT_LE(r.tree.stats.messages, 2 * m + n);
  EXPECT_LE(r.mis.stats.messages, 2 * m + n);
  EXPECT_LE(r.connectors.stats.messages, 4 * m + 4 * n);
  EXPECT_LE(r.leader_stats.messages, 2 * m * (n + 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedCdsRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// Cross-validation against the centralized core: same MIS when the
// centralized phase 1 uses the same (level, id) rank order.
class DistVsCentral : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistVsCentral, MisAgreesWithCentralizedRankOrder) {
  udg::InstanceParams params;
  params.nodes = 60;
  params.side = 6.5;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 53);
  const Graph& g = inst.graph;
  const auto r = distributed_waf_cds(g);

  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return r.tree.level[a] < r.tree.level[b];
  });
  auto expected = core::first_fit_mis(g, order).mis;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(r.mis.mis, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistVsCentral,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mcds::dist
