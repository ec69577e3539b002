#include "dist/alzoubi_protocol.hpp"

#include <gtest/gtest.h>

#include "core/mis.hpp"
#include "core/validate.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::dist {
namespace {

TEST(DistAlzoubi, SingleNodeAndEdge) {
  const auto r1 = distributed_alzoubi_cds(graph::Graph(1));
  EXPECT_EQ(r1.cds, (std::vector<NodeId>{0}));
  EXPECT_EQ(r1.total.messages, 0u);

  const Graph two = test::make_path(2);
  const auto r2 = distributed_alzoubi_cds(two);
  EXPECT_TRUE(core::is_cds(two, r2.cds));
  EXPECT_EQ(r2.cds, (std::vector<NodeId>{0}));  // node 0 dominates both
}

TEST(DistAlzoubi, PathRecruitsInteriorRelays) {
  // Path of 7: id-rank MIS = {0, 2, 4, 6}; dominators are 2 hops apart,
  // so every odd node is recruited as a relay.
  const Graph g = test::make_path(7);
  const auto r = distributed_alzoubi_cds(g);
  EXPECT_TRUE(core::is_cds(g, r.cds));
  EXPECT_EQ(r.mis.mis, (std::vector<NodeId>{0, 2, 4, 6}));
  EXPECT_EQ(r.connectors, (std::vector<NodeId>{1, 3, 5}));
}

TEST(DistAlzoubi, MisMatchesCentralizedIdRank) {
  udg::InstanceParams params;
  params.nodes = 60;
  params.side = 6.0;
  const auto inst = udg::generate_largest_component_instance(params, 21);
  const auto r = distributed_alzoubi_cds(inst.graph);
  auto expected = core::lowest_id_mis(inst.graph).mis;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(r.mis.mis, expected);
}

TEST(DistAlzoubi, Preconditions) {
  EXPECT_THROW((void)distributed_alzoubi_cds(graph::Graph{}),
               std::invalid_argument);
  const graph::Graph disc = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)distributed_alzoubi_cds(disc), std::invalid_argument);
}

// Property sweep: valid CDS across random topologies; the id-rank MIS is
// always contained; messages stay within the 3-hop flooding envelope.
class DistAlzoubiRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistAlzoubiRandom, ProducesValidCds) {
  udg::InstanceParams params;
  params.nodes = 40 + (GetParam() % 4) * 25;
  params.side = 5.0 + static_cast<double>(GetParam() % 3) * 2.0;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 41);
  const Graph& g = inst.graph;
  const auto r = distributed_alzoubi_cds(g);
  EXPECT_TRUE(core::is_cds(g, r.cds)) << "n=" << g.num_nodes();
  EXPECT_TRUE(core::is_maximal_independent_set(g, r.mis.mis));
  for (const NodeId u : r.mis.mis) {
    EXPECT_TRUE(std::binary_search(r.cds.begin(), r.cds.end(), u));
  }
  // Probe flood envelope: each node forwards each dominator's probe at
  // most once per ttl value (crude cubic bound).
  const std::size_t n = g.num_nodes(), m = g.num_edges();
  EXPECT_LE(r.connect_stats.messages, 2 * m * (r.mis.mis.size() + 2) * 3);
  EXPECT_LE(r.mis_stats.messages, 2 * m + n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistAlzoubiRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mcds::dist
