#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "baselines/alzoubi.hpp"
#include "baselines/bharghavan_das.hpp"
#include "baselines/connect_util.hpp"
#include "baselines/guha_khuller.hpp"
#include "baselines/li_thai.hpp"
#include "baselines/prune.hpp"
#include "baselines/stojmenovic.hpp"
#include "baselines/wu_li.hpp"
#include "core/validate.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::baselines {
namespace {

using core::is_cds;

TEST(ConnectUtil, JoinsPathEndpoints) {
  const Graph g = test::make_path(5);
  const auto closure = connected_closure(g, std::vector<NodeId>{0, 4});
  EXPECT_EQ(closure, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(GuhaKhuller, KnownGraphs) {
  EXPECT_EQ(guha_khuller_cds(test::make_star(7)),
            (std::vector<NodeId>{0}));
  EXPECT_EQ(guha_khuller_cds(test::make_complete(5)).size(), 1u);
  const auto path_cds = guha_khuller_cds(test::make_path(6));
  EXPECT_TRUE(is_cds(test::make_path(6), path_cds));
}

TEST(GuhaKhuller, SingleNodeAndPreconditions) {
  EXPECT_EQ(guha_khuller_cds(graph::Graph(1)), (std::vector<NodeId>{0}));
  EXPECT_THROW((void)guha_khuller_cds(graph::Graph{}),
               std::invalid_argument);
  const graph::Graph disc = test::make_graph(3, {{0, 1}});
  EXPECT_THROW((void)guha_khuller_cds(disc), std::invalid_argument);
}

TEST(BharghavanDas, GreedyDsCoversEverything) {
  const Graph g = test::make_grid(5, 5);
  const auto ds = greedy_dominating_set(g);
  EXPECT_TRUE(core::is_dominating_set(g, ds));
  // Chvátal greedy on a star picks the hub alone.
  EXPECT_EQ(greedy_dominating_set(test::make_star(9)),
            (std::vector<NodeId>{0}));
}

TEST(WuLi, MarkingOnPath) {
  // Path 0-1-2-3: interior nodes have non-adjacent neighbors -> marked.
  const auto cds = wu_li_cds(test::make_path(4));
  EXPECT_EQ(cds, (std::vector<NodeId>{1, 2}));
}

TEST(WuLi, CompleteGraphFallsBackToSingleNode) {
  const auto cds = wu_li_cds(test::make_complete(6));
  EXPECT_EQ(cds.size(), 1u);
  EXPECT_TRUE(is_cds(test::make_complete(6), cds));
}

TEST(WuLi, Rule1PrunesCoveredNode) {
  // Two hubs joined: a node whose closed neighborhood is inside a
  // higher-id marked neighbor's should be unmarked.
  // The path 0-1-2-3-4 plus the chord 1-3.
  const graph::Graph g =
      test::make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}});
  const auto cds = wu_li_cds(g);
  EXPECT_TRUE(is_cds(g, cds));
  EXPECT_LE(cds.size(), 3u);
}

TEST(Prune, RemovesRedundantNodes) {
  const Graph g = test::make_star(8);
  // The whole vertex set is a valid but wasteful CDS.
  std::vector<NodeId> all;
  for (NodeId v = 0; v < 8; ++v) all.push_back(v);
  const auto pruned = prune_cds(g, all);
  EXPECT_EQ(pruned, (std::vector<NodeId>{0}));
}

TEST(Prune, RejectsNonCds) {
  const Graph g = test::make_path(5);
  EXPECT_THROW((void)prune_cds(g, std::vector<NodeId>{0, 1}),
               std::invalid_argument);
}

TEST(Prune, OutputIsMinimal) {
  udg::InstanceParams params;
  params.nodes = 60;
  params.side = 6.0;
  const auto inst = udg::generate_largest_component_instance(params, 3);
  const auto cds = stojmenovic_cds(inst.graph);
  const auto pruned = prune_cds(inst.graph, cds);
  EXPECT_TRUE(is_cds(inst.graph, pruned));
  EXPECT_LE(pruned.size(), cds.size());
  // Minimality: removing any single node breaks the CDS property.
  for (std::size_t i = 0; i < pruned.size() && pruned.size() > 1; ++i) {
    std::vector<NodeId> trial;
    for (std::size_t j = 0; j < pruned.size(); ++j) {
      if (j != i) trial.push_back(pruned[j]);
    }
    EXPECT_FALSE(is_cds(inst.graph, trial)) << "node " << pruned[i];
  }
}

// Property sweep: every baseline must produce a valid CDS on random
// connected UDGs across densities.
struct BaselineCase {
  std::string name;
  std::function<std::vector<NodeId>(const Graph&)> run;
};

class BaselineValidity
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BaselineValidity, ProducesValidCds) {
  const auto [algo, seed] = GetParam();
  const BaselineCase cases[] = {
      {"guha_khuller", [](const Graph& g) { return guha_khuller_cds(g); }},
      {"bharghavan_das",
       [](const Graph& g) { return bharghavan_das_cds(g); }},
      {"stojmenovic", [](const Graph& g) { return stojmenovic_cds(g); }},
      {"li_thai", [](const Graph& g) { return li_thai_cds(g); }},
      {"wu_li", [](const Graph& g) { return wu_li_cds(g); }},
      {"alzoubi", [](const Graph& g) { return alzoubi_cds(g); }},
  };
  const BaselineCase& c = cases[algo];

  udg::InstanceParams params;
  params.nodes = 70;
  params.side = 4.0 + static_cast<double>(seed % 4) * 2.0;
  const auto inst =
      udg::generate_largest_component_instance(params, seed * 13 + 1);
  const auto cds = c.run(inst.graph);
  EXPECT_TRUE(is_cds(inst.graph, cds))
      << c.name << " seed=" << seed << " n=" << inst.graph.num_nodes();
}

INSTANTIATE_TEST_SUITE_P(
    AlgoSeeds, BaselineValidity,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Range<std::uint64_t>(1, 9)));

}  // namespace
}  // namespace mcds::baselines
