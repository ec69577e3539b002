#include "dist/greedy_protocol.hpp"

#include <gtest/gtest.h>

#include "core/greedy_connect.hpp"
#include "core/validate.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::dist {
namespace {

TEST(DistGreedy, SingleNodeAndEdge) {
  const auto r1 = distributed_greedy_cds(graph::Graph(1));
  EXPECT_EQ(r1.cds, (std::vector<NodeId>{0}));
  EXPECT_EQ(r1.epochs, 0u);

  const Graph two = test::make_path(2);
  const auto r2 = distributed_greedy_cds(two);
  EXPECT_TRUE(core::is_cds(two, r2.cds));
  EXPECT_EQ(r2.cds, (std::vector<NodeId>{0}));
}

TEST(DistGreedy, PathMatchesCentralizedConnectorCount) {
  // Path of 9: dominators {0,2,4,6,8}; each odd node has gain exactly 1
  // and competes with its 2-hop odd neighbors... all bids tie on gain so
  // the smallest-id bidder of each neighborhood wins per epoch; the end
  // state must use exactly the 4 odd connectors.
  const Graph g = test::make_path(9);
  const auto r = distributed_greedy_cds(g);
  EXPECT_TRUE(core::is_cds(g, r.cds));
  EXPECT_EQ(r.connectors, (std::vector<NodeId>{1, 3, 5, 7}));
}

TEST(DistGreedy, Preconditions) {
  EXPECT_THROW((void)distributed_greedy_cds(graph::Graph{}),
               std::invalid_argument);
  const graph::Graph disc = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)distributed_greedy_cds(disc), std::invalid_argument);
}

// Property sweep: valid CDS; locality costs at most a modest premium
// over the centralized Section IV greedy (never smaller than OPT-side
// structure: dominators are shared by construction rank order).
class DistGreedyRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistGreedyRandom, ValidAndComparableToCentralized) {
  udg::InstanceParams params;
  params.nodes = 50 + (GetParam() % 3) * 30;
  params.side = 5.5 + static_cast<double>(GetParam() % 3) * 1.5;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 67);
  const Graph& g = inst.graph;
  const auto r = distributed_greedy_cds(g);
  EXPECT_TRUE(core::is_cds(g, r.cds)) << "n=" << g.num_nodes();
  EXPECT_TRUE(core::is_maximal_independent_set(g, r.mis.mis));

  // Epochs never exceed the dominator count (q strictly decreases).
  EXPECT_LE(r.epochs, r.mis.mis.size());
  // Connector budget: one winner merges >= 2 components, so the total
  // number of connectors is below the component count at phase-1 end.
  EXPECT_LE(r.connectors.size(), r.mis.mis.size());

  // Locality premium vs the centralized greedy (same ratio class).
  const auto central = core::greedy_cds(g, 0);
  EXPECT_LE(r.cds.size(), central.cds.size() * 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistGreedyRandom,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace mcds::dist
