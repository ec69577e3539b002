#include "core/waf.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/validate.hpp"
#include "exact/exact_cds.hpp"
#include "graph/small_graph.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace mcds::core {
namespace {

TEST(Waf, SingleNode) {
  const graph::Graph g(1);
  const WafResult r = waf_cds(g, 0);
  EXPECT_EQ(r.cds, (std::vector<NodeId>{0}));
  EXPECT_TRUE(r.connectors.empty());
}

TEST(Waf, TwoNodes) {
  const Graph g = test::make_path(2);
  const WafResult r = waf_cds(g, 0);
  EXPECT_TRUE(is_cds(g, r.cds));
  // I = {0}; s = 1; CDS = {0, 1}.
  EXPECT_EQ(r.s, 1u);
  EXPECT_EQ(r.cds, (std::vector<NodeId>{0, 1}));
}

TEST(Waf, PathGraph) {
  const Graph g = test::make_path(7);
  const WafResult r = waf_cds(g, 0);
  EXPECT_TRUE(is_cds(g, r.cds));
  EXPECT_TRUE(is_maximal_independent_set(g, r.phase1.mis));
}

TEST(Waf, StarGraphFromLeaf) {
  const Graph g = test::make_star(8);
  const WafResult r = waf_cds(g, 1);  // leaf root
  EXPECT_TRUE(is_cds(g, r.cds));
}

TEST(Waf, RequiresConnected) {
  const graph::Graph g = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)waf_cds(g, 0), std::invalid_argument);
}

TEST(Waf, Deterministic) {
  udg::InstanceParams params;
  params.nodes = 80;
  params.side = 8.0;
  const auto inst = udg::generate_largest_component_instance(params, 5);
  const WafResult a = waf_cds(inst.graph, 0);
  const WafResult b = waf_cds(inst.graph, 0);
  EXPECT_EQ(a.cds, b.cds);
  EXPECT_EQ(a.s, b.s);
}

TEST(Waf, ConnectorsAreDisjointFromMis) {
  udg::InstanceParams params;
  params.nodes = 100;
  params.side = 9.0;
  const auto inst = udg::generate_largest_component_instance(params, 9);
  const WafResult r = waf_cds(inst.graph, 0);
  for (const NodeId c : r.connectors) {
    EXPECT_FALSE(r.phase1.in_mis[c]);
  }
  EXPECT_EQ(r.cds.size(), r.phase1.mis.size() + r.connectors.size());
}

// Structural bound from the analysis: |C| <= |I| - |I ∩ N[s]| + 1, hence
// |I ∪ C| <= 2|I| + 1 - |I(s)|.
class WafStructure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WafStructure, CdsValidAndSizeBounded) {
  udg::InstanceParams params;
  params.nodes = 90;
  params.side = 8.0;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 31);
  const Graph& g = inst.graph;
  const WafResult r = waf_cds(g, 0);
  EXPECT_TRUE(is_cds(g, r.cds));
  std::size_t mis_adjacent_s = 0;
  for (const NodeId u : r.phase1.mis) {
    if (u == r.s || g.has_edge(u, r.s)) ++mis_adjacent_s;
  }
  if (g.num_nodes() >= 2) {
    EXPECT_LE(r.cds.size(), 2 * r.phase1.mis.size() + 1 - mis_adjacent_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WafStructure,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(WafPruned, SingleNodeAndTwoNodes) {
  const graph::Graph one(1);
  EXPECT_EQ(waf_cds_pruned(one, 0).cds, (std::vector<NodeId>{0}));
  const Graph two = test::make_path(2);
  const WafResult r = waf_cds_pruned(two, 0);
  EXPECT_TRUE(is_cds(two, r.cds));
  EXPECT_EQ(r.s, 1u);
}

TEST(WafPruned, PathNeedsEveryParent) {
  // On a path no parent invitation is redundant, so pruning changes
  // nothing: both variants coincide.
  const Graph g = test::make_path(9);
  const WafResult pruned = waf_cds_pruned(g, 0);
  const WafResult full = waf_cds(g, 0);
  EXPECT_EQ(pruned.cds, full.cds);
  EXPECT_EQ(pruned.s, full.s);
}

// The union-find-pruned variant shares phase 1 and s with waf_cds, stays
// a valid CDS, and never uses more connectors (it only *skips* parent
// invitations whose dominator is already reachable from s).
class WafPrunedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WafPrunedSweep, ValidSubsetOfReferenceAndNoLarger) {
  udg::InstanceParams params;
  params.nodes = 80 + (GetParam() % 4) * 40;
  params.side = 7.0 + static_cast<double>(GetParam() % 3) * 2.0;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 131);
  const Graph& g = inst.graph;
  const WafResult pruned = waf_cds_pruned(g, 0);
  const WafResult full = waf_cds(g, 0);
  EXPECT_TRUE(is_cds(g, pruned.cds));
  EXPECT_EQ(pruned.s, full.s);
  EXPECT_EQ(pruned.phase1.mis, full.phase1.mis);
  EXPECT_LE(pruned.cds.size(), full.cds.size());
  // Subset property: every pruned connector is a reference connector.
  std::vector<bool> in_full(g.num_nodes(), false);
  for (const NodeId c : full.connectors) in_full[c] = true;
  for (const NodeId c : pruned.connectors) {
    EXPECT_TRUE(in_full[c]) << "connector " << c << " not in reference set";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WafPrunedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// Theorem 8 validation: on small instances with exact gamma_c,
// |I ∪ C| <= 7⅓ γ_c.
class WafTheorem8 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WafTheorem8, RatioWithinProvenBound) {
  udg::InstanceParams params;
  params.nodes = 16;
  params.side = 3.5;
  const auto inst =
      udg::generate_connected_instance(params, GetParam() * 101);
  if (!inst) GTEST_SKIP() << "no connected draw";
  const Graph& g = inst->graph;
  const graph::SmallGraph sg(g);
  const std::size_t gamma_c = exact::connected_domination_number(sg);
  const WafResult r = waf_cds(g, 0);
  EXPECT_TRUE(is_cds(g, r.cds));
  EXPECT_LE(static_cast<double>(r.cds.size()),
            bounds::waf_upper_bound(gamma_c) + 1e-9)
      << "n=" << g.num_nodes() << " gamma_c=" << gamma_c;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WafTheorem8,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace mcds::core
