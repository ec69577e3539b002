#include "exact/exact_connectors.hpp"

#include <gtest/gtest.h>

#include "core/greedy_connect.hpp"
#include "core/mis.hpp"
#include "graph/small_graph.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"

namespace mcds::exact {
namespace {

using graph::Mask;
using graph::SmallGraph;

Mask to_mask(const std::vector<graph::NodeId>& nodes) {
  Mask m = 0;
  for (const auto v : nodes) m |= Mask{1} << v;
  return m;
}

TEST(MinimumConnectors, PathMisNeedsAllGaps) {
  const SmallGraph g(test::make_path(7));
  // MIS {0, 2, 4, 6}: the three odd nodes are the unique connector set.
  const Mask c = minimum_connectors(g, to_mask({0, 2, 4, 6}));
  EXPECT_EQ(c, to_mask({1, 3, 5}));
}

TEST(MinimumConnectors, AlreadyConnectedNeedsNothing) {
  const SmallGraph g(test::make_star(6));
  EXPECT_EQ(minimum_connectors(g, to_mask({0})), 0u);
}

TEST(MinimumConnectors, ChainThroughZeroGainNodes) {
  // I = {0, 3} on a path of 4: both interior nodes have gain... node 1
  // and node 2 each touch one component only, yet both are needed —
  // exercises the chain case that positive-gain-only search would miss.
  const SmallGraph g(test::make_path(4));
  const Mask c = minimum_connectors(g, to_mask({0, 3}));
  EXPECT_EQ(c, to_mask({1, 2}));
}

TEST(MinimumConnectors, Preconditions) {
  const SmallGraph g(test::make_path(4));
  EXPECT_THROW((void)minimum_connectors(g, 0), std::invalid_argument);
  // Not dominating: {0} leaves nodes 2,3 undominated.
  EXPECT_THROW((void)minimum_connectors(g, to_mask({0})),
               std::invalid_argument);
  const graph::Graph disc = test::make_graph(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(
      (void)minimum_connectors(SmallGraph(disc), to_mask({0, 1, 2, 3})),
      std::invalid_argument);
}

TEST(MinimumConnectors, WitnessConnects) {
  const SmallGraph g(test::make_grid(4, 4));
  const auto real_mis = core::lowest_id_mis(test::make_grid(4, 4));
  const Mask m = to_mask(real_mis.mis);
  const Mask c = minimum_connectors(g, m);
  EXPECT_TRUE(g.is_connected(m | c));
  EXPECT_EQ(m & c, 0u);
}

// Property sweep: the exact optimum never exceeds the greedy phase 2,
// and the witness always connects.
class ExactConnectorsRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExactConnectorsRandom, OptimumBelowGreedyAndValid) {
  udg::InstanceParams params;
  params.nodes = 13 + GetParam() % 5;
  params.side = 3.0;
  params.max_retries = 50;
  const auto inst =
      udg::generate_connected_instance(params, GetParam() * 331);
  if (!inst) GTEST_SKIP() << "no connected draw";
  const SmallGraph sg(inst->graph);
  const auto greedy = core::greedy_cds(inst->graph, 0);
  const Mask mis_mask = to_mask(greedy.phase1.mis);
  const Mask c = minimum_connectors(sg, mis_mask);
  EXPECT_TRUE(sg.is_connected(mis_mask | c));
  EXPECT_LE(static_cast<std::size_t>(graph::popcount(c)),
            greedy.connectors.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactConnectorsRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// Differential: the 128-bit solver must agree with the 64-bit one.
class ConnectorsWidthDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConnectorsWidthDifferential, SameOptimalCount) {
  udg::InstanceParams params;
  params.nodes = 12 + GetParam() % 6;
  params.side = 3.0;
  const auto inst =
      udg::generate_connected_instance(params, GetParam() * 887);
  if (!inst) GTEST_SKIP() << "no connected draw";
  const auto mis = core::bfs_first_fit_mis(inst->graph, 0);
  const Mask m64 = to_mask(mis.mis);
  graph::Mask128 m128{m64};
  const SmallGraph g64(inst->graph);
  const graph::SmallGraph128 g128(inst->graph);
  EXPECT_EQ(minimum_connector_count(g64, m64),
            minimum_connector_count(g128, m128));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectorsWidthDifferential,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mcds::exact
