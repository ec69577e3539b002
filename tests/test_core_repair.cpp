#include "core/repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/greedy_connect.hpp"
#include "core/validate.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"

namespace mcds::core {
namespace {

TEST(Repair, ValidOldCdsPassesThrough) {
  const Graph g = test::make_path(7);
  const std::vector<NodeId> cds{1, 2, 3, 4, 5};
  const auto r = repair_cds(g, cds);
  EXPECT_TRUE(is_cds(g, r.cds));
  EXPECT_EQ(r.cds, cds);
  EXPECT_EQ(r.added, 0u);
  EXPECT_EQ(r.kept, 5u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(Repair, RestoresDominationAndConnectivity) {
  // Old backbone {1, 5} on a path of 7: node 3 is uncovered and the two
  // backbone components cannot be merged by a single node — exercises
  // both repair steps including the path-bridging fallback.
  const Graph g = test::make_path(7);
  const auto r = repair_cds(g, std::vector<NodeId>{1, 5});
  EXPECT_TRUE(is_cds(g, r.cds));
  EXPECT_EQ(r.kept, 2u);
  EXPECT_GE(r.added, 2u);
  EXPECT_TRUE(std::binary_search(r.cds.begin(), r.cds.end(), 1u));
  EXPECT_TRUE(std::binary_search(r.cds.begin(), r.cds.end(), 5u));
}

TEST(Repair, HandlesTotalLoss) {
  const Graph g = test::make_star(6);
  // All old ids out of range: everything failed.
  const auto r = repair_cds(g, std::vector<NodeId>{100, 101});
  EXPECT_TRUE(is_cds(g, r.cds));
  EXPECT_EQ(r.dropped, 2u);
  EXPECT_EQ(r.kept, 0u);
  EXPECT_EQ(r.cds, (std::vector<NodeId>{0}));  // hub
}

TEST(Repair, DeduplicatesOldEntries) {
  const Graph g = test::make_path(3);
  const auto r = repair_cds(g, std::vector<NodeId>{1, 1, 1});
  EXPECT_EQ(r.kept, 1u);
  EXPECT_TRUE(is_cds(g, r.cds));
}

TEST(Repair, Preconditions) {
  EXPECT_THROW((void)repair_cds(Graph{}, {}), std::invalid_argument);
  // A disconnected topology is repaired into a forest: the two isolated
  // nodes, which kept no member, are seeded.
  const graph::Graph disc = test::make_graph(4, {{0, 1}});
  const auto r = repair_cds(disc, {0});
  EXPECT_EQ(r.cds, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(r.kept, 1u);
  EXPECT_EQ(r.added, 2u);
  EXPECT_TRUE(check_cds_components(disc, r.cds).ok);
}

// Property sweep: repair after random topology perturbation always
// yields a valid CDS and keeps most of the old backbone.
class RepairRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairRandom, ValidAfterPerturbation) {
  udg::InstanceParams params;
  params.nodes = 120;
  params.side = 9.0;
  const auto before =
      udg::generate_largest_component_instance(params, GetParam() * 7);
  const auto old_cds = greedy_cds(before.graph, 0).cds;

  // Perturb: jitter every node by up to 0.3 and rebuild the topology
  // (keeping the same ids).
  sim::Rng rng(GetParam() * 13 + 1);
  auto moved = before.points;
  for (auto& p : moved) {
    p.x += rng.uniform(-0.3, 0.3);
    p.y += rng.uniform(-0.3, 0.3);
  }
  const auto after = udg::build_udg(moved);
  const auto r = repair_cds(after, old_cds);
  if (!graph::is_connected(after)) {
    // A fragmented draw: each component is repaired against the old
    // backbone nodes that fell into it.
    EXPECT_TRUE(check_cds_components(after, r.cds).ok);
    EXPECT_EQ(r.kept, old_cds.size());
    EXPECT_EQ(r.kept + r.added, r.cds.size());
    return;
  }

  EXPECT_TRUE(is_cds(after, r.cds));
  EXPECT_EQ(r.kept, old_cds.size());
  EXPECT_EQ(r.kept + r.added, r.cds.size());
  // Churn sanity: repair should not recruit more nodes than a full
  // rebuild would use in total.
  const auto rebuild = greedy_cds(after, 0).cds;
  EXPECT_LE(r.added, rebuild.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// Node-failure repair: remove a backbone node from the graph (simulate
// by rebuilding without it) and repair with the surviving ids remapped.
class RepairFailure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairFailure, SurvivesBackboneNodeLoss) {
  udg::InstanceParams params;
  params.nodes = 100;
  params.side = 8.0;
  const auto inst =
      udg::generate_largest_component_instance(params, GetParam() * 11);
  const auto old_cds = greedy_cds(inst.graph, 0).cds;
  if (old_cds.size() < 2) GTEST_SKIP() << "trivial backbone";
  const NodeId failed = old_cds[old_cds.size() / 2];

  // Remap: drop `failed`; ids above it shift down by one.
  std::vector<geom::Vec2> pts;
  for (NodeId v = 0; v < inst.points.size(); ++v) {
    if (v != failed) pts.push_back(inst.points[v]);
  }
  const auto g2 = udg::build_udg(pts);
  std::vector<NodeId> survivors;
  for (const NodeId v : old_cds) {
    if (v == failed) continue;
    survivors.push_back(v > failed ? v - 1 : v);
  }
  const auto r = repair_cds(g2, survivors);
  if (!graph::is_connected(g2)) {
    // The failure split the network: every side is repaired.
    EXPECT_TRUE(check_cds_components(g2, r.cds).ok);
    EXPECT_EQ(r.kept, survivors.size());
    EXPECT_EQ(r.kept + r.added, r.cds.size());
    return;
  }
  EXPECT_TRUE(is_cds(g2, r.cds));
  EXPECT_EQ(r.kept, survivors.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairFailure,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace mcds::core
