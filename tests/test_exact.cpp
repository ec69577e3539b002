#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exact/brute_force.hpp"
#include "exact/exact_cds.hpp"
#include "exact/exact_ds.hpp"
#include "exact/exact_mis.hpp"
#include "graph/small_graph.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"

namespace mcds::exact {
namespace {

using graph::Mask;
using graph::SmallGraph;

TEST(ExactMis, KnownGraphs) {
  EXPECT_EQ(independence_number(SmallGraph(test::make_complete(5))), 1u);
  EXPECT_EQ(independence_number(SmallGraph(test::make_cycle(5))), 2u);
  EXPECT_EQ(independence_number(SmallGraph(test::make_cycle(6))), 3u);
  EXPECT_EQ(independence_number(SmallGraph(test::make_path(7))), 4u);
  EXPECT_EQ(independence_number(SmallGraph(test::make_star(8))), 7u);
  EXPECT_EQ(independence_number(SmallGraph(graph::Graph(4))), 4u);  // edgeless
}

TEST(ExactMis, WitnessIsIndependent) {
  const SmallGraph g(test::make_grid(3, 4));
  const Mask mis = maximum_independent_set(g);
  EXPECT_TRUE(g.is_independent(mis));
  EXPECT_EQ(static_cast<std::size_t>(graph::popcount(mis)),
            independence_number(g));
  EXPECT_EQ(independence_number(g), 6u);  // grid 3x4 alpha = 6
}

TEST(ExactDs, KnownGraphs) {
  EXPECT_EQ(domination_number(SmallGraph(test::make_star(9))), 1u);
  EXPECT_EQ(domination_number(SmallGraph(test::make_complete(6))), 1u);
  EXPECT_EQ(domination_number(SmallGraph(test::make_path(3))), 1u);
  EXPECT_EQ(domination_number(SmallGraph(test::make_path(7))), 3u);
  EXPECT_EQ(domination_number(SmallGraph(test::make_cycle(9))), 3u);
  EXPECT_THROW((void)minimum_dominating_set(SmallGraph(graph::Graph{})),
               std::invalid_argument);
}

TEST(ExactDs, WitnessDominates) {
  const SmallGraph g(test::make_grid(4, 4));
  const Mask ds = minimum_dominating_set(g);
  EXPECT_TRUE(g.is_dominating(ds));
  EXPECT_EQ(static_cast<std::size_t>(graph::popcount(ds)),
            domination_number(g));
  EXPECT_EQ(domination_number(g), 4u);  // 4x4 grid gamma = 4
}

TEST(ExactCds, KnownGraphs) {
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_star(9))), 1u);
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_complete(4))),
            1u);
  // A path of n >= 4 nodes: interior nodes form the unique minimum CDS.
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_path(6))), 4u);
  // A cycle of n >= 4: n-2.
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_cycle(7))), 5u);
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_path(1))), 1u);
  EXPECT_EQ(connected_domination_number(SmallGraph(test::make_path(2))), 1u);
}

TEST(ExactCds, WitnessIsConnectedDominating) {
  const SmallGraph g(test::make_grid(3, 3));
  const Mask cds = minimum_connected_dominating_set(g);
  EXPECT_TRUE(g.is_dominating(cds));
  EXPECT_TRUE(g.is_connected(cds));
  EXPECT_EQ(connected_domination_number(g), 3u);  // middle row/column
}

TEST(ExactCds, Preconditions) {
  EXPECT_THROW((void)minimum_connected_dominating_set(SmallGraph(graph::Graph{})),
               std::invalid_argument);
  const graph::Graph disconnected = test::make_graph(4, {{0, 1}});
  EXPECT_THROW(
      (void)minimum_connected_dominating_set(SmallGraph(disconnected)),
      std::invalid_argument);
}

TEST(BruteForce, SizeGuard) {
  EXPECT_THROW((void)independence_number_brute_force(SmallGraph(26)),
               std::invalid_argument);
}

// Property sweep: branch-and-bound solvers must agree with exhaustive
// enumeration on random small UDGs.
class ExactRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactRandom, SolversMatchBruteForce) {
  sim::Rng rng(GetParam());
  const std::size_t n = 4 + rng.uniform_int(8);  // 4..11 nodes
  const double side = 1.5 + rng.uniform01() * 2.0;
  const auto pts = udg::deploy_uniform_square(n, side, rng);
  const graph::Graph g = udg::build_udg(pts);
  const SmallGraph sg(g);

  EXPECT_EQ(independence_number(sg), independence_number_brute_force(sg));
  EXPECT_EQ(domination_number(sg), domination_number_brute_force(sg));
  if (sg.is_connected(sg.all())) {
    EXPECT_EQ(connected_domination_number(sg),
              connected_domination_number_brute_force(sg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactRandom,
                         ::testing::Range<std::uint64_t>(1, 41));

// Structural invariant on UDGs: gamma <= gamma_c and alpha >= gamma
// (every MIS is a dominating set). A disconnected draw is checked on its
// largest component.
class ExactRelations : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactRelations, OrderingsHold) {
  sim::Rng rng(GetParam() * 977);
  const std::size_t n = 5 + rng.uniform_int(10);
  const auto pts = udg::deploy_uniform_square(n, 2.5, rng);
  graph::Graph g = udg::build_udg(pts);
  const auto [comp, num_comps] = graph::connected_components(g);
  if (num_comps > 1) {
    std::vector<std::size_t> size(num_comps, 0);
    for (const std::uint32_t c : comp) ++size[c];
    const auto largest = static_cast<std::uint32_t>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<graph::NodeId> nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (comp[v] == largest) nodes.push_back(v);
    }
    g = graph::induced_subgraph(g, nodes).graph;
  }
  const SmallGraph sg(g);
  ASSERT_TRUE(sg.is_connected(sg.all()));
  const auto alpha = independence_number(sg);
  const auto gamma = domination_number(sg);
  const auto gamma_c = connected_domination_number(sg);
  EXPECT_LE(gamma, gamma_c);
  EXPECT_GE(alpha, gamma);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactRelations,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mcds::exact
