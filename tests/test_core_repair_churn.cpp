#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/greedy_connect.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "test_util.hpp"
#include "udg/mobility.hpp"

/// \file test_core_repair_churn.cpp
/// repair_cds under adversarial churn: random-waypoint
/// motion with fail-stop crashes and recoveries (udg::churn_schedule),
/// carrying one backbone across the whole trace. Each connected epoch is
/// checked differentially against a from-scratch construction — the
/// repaired set must be valid and not grotesquely larger than starting
/// over.

namespace {

using mcds::graph::Graph;
using mcds::graph::NodeId;

TEST(RepairChurn, ReconnectRegluesASplitBackbone) {
  const Graph g = mcds::test::make_path(5);
  // {1, 3} dominates the path but G[{1,3}] has two components.
  const std::vector<NodeId> split = {1, 3};
  const auto before = mcds::core::check_cds(g, split);
  ASSERT_FALSE(before.ok);
  ASSERT_EQ(before.defect, mcds::core::CdsDefect::kDisconnected);

  const auto r = mcds::core::repair_cds(g, split);
  EXPECT_TRUE(mcds::core::check_cds(g, r.cds).ok);
  EXPECT_EQ(r.kept, 2u);
  EXPECT_EQ(r.added, 1u);
  EXPECT_EQ(r.cds, (std::vector<NodeId>{1, 2, 3}));
}

TEST(RepairChurn, ReconnectLeavesAConnectedBackboneAlone) {
  const Graph g = mcds::test::make_path(5);
  const std::vector<NodeId> whole = {1, 2, 3};
  const auto r = mcds::core::repair_cds(g, whole);
  EXPECT_EQ(r.cds, whole);
  EXPECT_EQ(r.added, 0u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(RepairChurn, ChurnScheduleIsDeterministic) {
  const mcds::udg::WaypointParams wp{7.0, 0.05, 0.5, 2};
  mcds::udg::RandomWaypoint m1(20, wp, 5);
  mcds::udg::RandomWaypoint m2(20, wp, 5);
  const auto a = mcds::udg::churn_schedule(m1, 2.0, 10, 2, {0.2, 0.4}, 9);
  const auto b = mcds::udg::churn_schedule(m2, 2.0, 10, 2, {0.2, 0.4}, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].up, b[e].up);
    EXPECT_EQ(a[e].topology.num_edges(), b[e].topology.num_edges());
  }
}

TEST(RepairChurn, ChurnScheduleValidatesInputs) {
  const mcds::udg::WaypointParams wp;
  mcds::udg::RandomWaypoint motion(5, wp, 1);
  EXPECT_THROW(mcds::udg::churn_schedule(motion, 0.0, 1, 1, {}, 1),
               std::invalid_argument);
  EXPECT_THROW(mcds::udg::churn_schedule(motion, 1.0, 1, 1, {1.5, 0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(mcds::udg::churn_schedule(motion, 1.0, 1, 1, {0.0, -0.1}, 1),
               std::invalid_argument);
}

// The satellite's differential: carry a backbone through waypoint motion
// plus crash/recovery churn; on every epoch whose survivor graph is
// connected, repair must produce a valid CDS whose size is within a
// declared factor of rebuilding from scratch.
TEST(RepairChurn, DifferentialRepairUnderWaypointChurn) {
  constexpr double kSizeFactor = 3.0;
  constexpr std::size_t kSizeSlack = 2;

  std::size_t repaired_epochs = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    mcds::udg::WaypointParams wp;
    wp.side = 7.0;
    mcds::udg::RandomWaypoint motion(36, wp, seed);
    const auto trace = mcds::udg::churn_schedule(motion, 2.0, 25, 2,
                                                 {0.15, 0.35}, seed + 100);

    std::vector<NodeId> backbone;  // full-graph ids, possibly stale
    for (std::size_t e = 0; e < trace.size(); ++e) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", epoch " << e);
      const Graph& g = trace[e].topology;
      std::vector<NodeId> live;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (trace[e].up[v]) live.push_back(v);
      }
      if (live.empty()) {
        backbone.clear();
        continue;
      }
      const auto sub = mcds::graph::induced_subgraph(g, live);
      if (!mcds::graph::is_connected(sub.graph)) continue;  // carry stale set

      std::vector<NodeId> to_sub(g.num_nodes(), mcds::graph::kNoNode);
      for (NodeId i = 0; i < sub.mapping.size(); ++i) {
        to_sub[sub.mapping[i]] = i;
      }
      std::vector<NodeId> old_sub;
      for (const NodeId v : backbone) {
        if (to_sub[v] != mcds::graph::kNoNode) old_sub.push_back(to_sub[v]);
      }

      const auto repaired = mcds::core::repair_cds(sub.graph, old_sub);
      const auto check = mcds::core::check_cds(sub.graph, repaired.cds);
      EXPECT_TRUE(check.ok) << "repair produced: " << check.describe();
      EXPECT_EQ(repaired.kept + repaired.added, repaired.cds.size());

      const auto scratch = mcds::core::greedy_cds(sub.graph);
      EXPECT_LE(repaired.cds.size(),
                static_cast<std::size_t>(
                    kSizeFactor * static_cast<double>(scratch.cds.size())) +
                    kSizeSlack)
          << "repair kept too much: " << repaired.cds.size() << " vs scratch "
          << scratch.cds.size();

      backbone.clear();
      for (const NodeId i : repaired.cds) backbone.push_back(sub.mapping[i]);
      ++repaired_epochs;
    }
  }
  // The trace parameters must actually exercise repair, not skip it.
  EXPECT_GE(repaired_epochs, 20u);
}

}  // namespace
