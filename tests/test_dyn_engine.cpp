// DynamicCds engine: the three incremental layers glued together. These
// tests drive small deterministic scenarios event by event and demand a
// valid CDS (check() via core::check_cds_components) plus the paper's
// 4|MIS|+12 envelope after *every* event, exercise the amortized
// policies (envelope rebuild, overlay compaction), the obs wiring, the
// BackboneView handoff into dist::SelfHealingCds::reconcile(), and — for
// the TSan job — concurrent independent engines. The LocalBackbone cases
// pin the connector rebuild's worst case and its topology precondition.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/local_repair.hpp"
#include "dist/maintenance.hpp"
#include "dyn/dynamic_cds.hpp"
#include "geom/vec2.hpp"
#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::geom::Vec2;
using mcds::graph::NodeId;
using mcds::dyn::DynamicCds;
using mcds::dyn::DynParams;
using mcds::dyn::EventKind;
using mcds::dyn::EventReport;

void expect_valid(const DynamicCds& engine, const char* when) {
  const auto check = engine.check();
  EXPECT_TRUE(check.ok) << when << ": " << check.describe();
  EXPECT_LE(engine.cds_size(), 4 * engine.mis_size() + 12) << when;
}

std::vector<Vec2> cluster(Vec2 origin, std::size_t n, double spread,
                          std::uint64_t seed) {
  mcds::sim::Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({origin.x + rng.uniform(0.0, spread),
                   origin.y + rng.uniform(0.0, spread)});
  }
  return pts;
}

TEST(DynEngine, InitialSolveMatchesTopology) {
  const auto inst = mcds::udg::generate_instance({.nodes = 120}, 3);
  DynamicCds engine(inst.points);
  expect_valid(engine, "after construction");
  EXPECT_EQ(engine.num_nodes(), inst.points.size());
  EXPECT_EQ(engine.alive_count(), inst.points.size());
  EXPECT_EQ(engine.epoch(), 0u);
  // The engine's topology is exactly the instance's UDG.
  const auto topo = engine.topology();
  const auto to = topo.offsets();
  const auto io = inst.graph.offsets();
  EXPECT_TRUE(std::equal(to.begin(), to.end(), io.begin(), io.end()));
  const auto tn = topo.flat_neighbors();
  const auto in = inst.graph.flat_neighbors();
  EXPECT_TRUE(std::equal(tn.begin(), tn.end(), in.begin(), in.end()));
}

TEST(DynEngine, EventReportsAccountForEdges) {
  DynamicCds engine(std::vector<Vec2>{{0.0, 0.0}, {0.8, 0.0}});
  EventReport r;
  const NodeId v = engine.insert({0.4, 0.3}, &r);
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(r.kind, EventKind::kInsert);
  EXPECT_EQ(r.edges_added, 2u);
  EXPECT_EQ(r.edges_removed, 0u);
  expect_valid(engine, "after insert");

  r = engine.move(v, {5.0, 5.0});
  EXPECT_EQ(r.edges_removed, 2u);
  EXPECT_EQ(r.edges_added, 0u);
  expect_valid(engine, "after move away");

  r = engine.erase(0);
  EXPECT_EQ(r.edges_removed, 1u);
  EXPECT_FALSE(engine.alive(0));
  expect_valid(engine, "after erase");

  r = engine.revive(0, {4.5, 5.0});
  EXPECT_EQ(r.edges_added, 1u);
  EXPECT_TRUE(engine.alive(0));
  expect_valid(engine, "after revive");
}

TEST(DynEngine, DeleteToEmptyAndBack) {
  const auto pts = cluster({0.0, 0.0}, 25, 3.0, 17);
  DynamicCds engine(pts);
  for (NodeId v = 0; v < pts.size(); ++v) {
    engine.erase(v);
    expect_valid(engine, "during teardown");
  }
  EXPECT_EQ(engine.alive_count(), 0u);
  EXPECT_EQ(engine.cds_size(), 0u);
  EXPECT_EQ(engine.mis_size(), 0u);
  for (NodeId v = 0; v < pts.size(); ++v) {
    engine.revive(v, pts[v]);
    expect_valid(engine, "during rebuild");
  }
  EXPECT_EQ(engine.alive_count(), pts.size());
}

TEST(DynEngine, IslandMergeBridgesClusters) {
  // Two clusters far outside each other's disks: the maintained set is a
  // CDS forest with one tree per island.
  auto pts = cluster({0.0, 0.0}, 12, 2.0, 5);
  const auto far = cluster({20.0, 0.0}, 12, 2.0, 6);
  pts.insert(pts.end(), far.begin(), far.end());
  DynamicCds engine(pts);
  expect_valid(engine, "two islands");
  // Walk one node across the gap: every intermediate topology must stay
  // covered, and the final one is a single connected component.
  const NodeId walker = 0;
  for (double x = 2.0; x <= 19.0; x += 0.8) {
    engine.move(walker, {x, 1.0});
    expect_valid(engine, "mid-walk");
  }
  const auto views = engine.view();
  EXPECT_EQ(views.island.size(), pts.size());
}

TEST(DynEngine, EnvelopeRebuildRestoresConnectorBound) {
  // The default 4|MIS| + 12 envelope never fires on this stream, so it
  // runs under a tightened one. Each rebuild re-derives the connectors
  // from the maintained MIS: |B| <= 3|MIS| - 2 per component, so also
  // overall.
  const auto inst = mcds::udg::generate_instance({.nodes = 150}, 9);
  DynParams params;
  params.envelope_factor = 2.0;
  params.envelope_bias = 0;
  DynamicCds engine(inst.points, params);
  mcds::sim::Rng rng(99);
  std::size_t rebuilds_seen = 0;
  for (int step = 0; step < 600; ++step) {
    const auto v = static_cast<NodeId>(rng.uniform_int(engine.num_nodes()));
    EventReport r;
    if (engine.alive(v) && rng.uniform01() < 0.2) {
      r = engine.erase(v);
    } else if (!engine.alive(v)) {
      r = engine.revive(v, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    } else {
      r = engine.move(v, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    }
    if (r.rebuilt) {
      ++rebuilds_seen;
      EXPECT_LE(engine.cds_size(), 3 * engine.mis_size() - 2)
          << "step " << step;
    }
    expect_valid(engine, "churn step");
  }
  EXPECT_GE(engine.rebuilds(), 1u);
  EXPECT_EQ(rebuilds_seen, engine.rebuilds());
}

// The envelope rebuild's connector bound. Ids 0-10 sit at positions 0,
// 3, ..., 30 of a 31-node path, so the lowest-id MIS is exactly those 11
// nodes, every fragment 3 hops from the next: no connector has positive
// gain, and each of the 10 patches adds two nodes for one merge. |B| =
// 3|MIS| - 2 is the most a rebuild can give per component, which stays
// inside the 4|MIS| + 12 envelope.
TEST(LocalBackbone, StalledRebuildMeetsThreeMisBound) {
  constexpr NodeId kLength = 31;
  std::vector<NodeId> id_at(kLength);
  NodeId gap_id = 11;
  for (NodeId p = 0; p < kLength; ++p) {
    id_at[p] = p % 3 == 0 ? p / 3 : gap_id++;
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId p = 0; p + 1 < kLength; ++p) {
    edges.emplace_back(id_at[p], id_at[p + 1]);
  }
  const mcds::graph::DeltaGraph g(mcds::graph::Graph(kLength, edges));
  const std::vector<std::uint8_t> alive(kLength, 1);
  mcds::core::LocalBackbone backbone(g, alive);
  EXPECT_EQ(backbone.mis_size(), 11u);
  EXPECT_EQ(backbone.cds_size(), 3 * backbone.mis_size() - 2);
  EXPECT_FALSE(backbone.envelope_exceeded(4.0, 12));
  backbone.rebuild_connectors(g, alive);
  EXPECT_EQ(backbone.cds_size(), 3 * backbone.mis_size() - 2);
}

// One engine runs over the whole topology, so a dead node must have no
// edges (udg::GridIndex drops them all on erase).
TEST(LocalBackbone, RejectsDeadNodeWithEdges) {
  const mcds::graph::DeltaGraph g(
      mcds::graph::Graph(3, std::vector<std::pair<NodeId, NodeId>>{{0, 1},
                                                                   {1, 2}}));
  const std::vector<std::uint8_t> alive{1, 0, 1};
  EXPECT_THROW(mcds::core::LocalBackbone(g, alive), std::invalid_argument);
}

TEST(DynEngine, CompactionKeepsTopologyExact) {
  const auto pts = cluster({0.0, 0.0}, 60, 6.0, 21);
  DynParams params;
  params.compact_min_edits = 64;  // low threshold: force compactions
  params.compact_fraction = 0.01;
  DynamicCds engine(pts, params);
  mcds::sim::Rng rng(4242);
  bool compacted = false;
  for (int step = 0; step < 200; ++step) {
    const auto v = static_cast<NodeId>(rng.uniform_int(engine.num_nodes()));
    if (!engine.alive(v)) continue;
    const EventReport r =
        engine.move(v, {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)});
    compacted = compacted || r.compacted;
    expect_valid(engine, "compaction churn");
  }
  EXPECT_TRUE(compacted);
  EXPECT_GE(engine.compactions(), 1u);
  EXPECT_EQ(engine.delta_graph().overlay_edits(), 0u);
}

TEST(DynEngine, MetricsFlowThroughObs) {
  mcds::obs::MetricsRegistry registry;
  const mcds::obs::Obs obs{&registry, nullptr};
  const auto pts = cluster({0.0, 0.0}, 30, 4.0, 8);
  DynamicCds engine(pts, {}, obs);
  engine.insert({2.0, 2.0});
  engine.move(0, {1.0, 1.0});
  engine.move(0, {3.0, 3.0});
  engine.erase(1);
  engine.revive(1, {0.5, 0.5});
  EXPECT_EQ(registry.counter("dyn.events.insert").value(), 1u);
  EXPECT_EQ(registry.counter("dyn.events.move").value(), 2u);
  EXPECT_EQ(registry.counter("dyn.events.erase").value(), 1u);
  EXPECT_EQ(registry.counter("dyn.events.revive").value(), 1u);
  EXPECT_EQ(registry.histogram("dyn.repair_scope").acc().count(), 5u);
}

TEST(DynEngine, RejectsBadParams) {
  DynParams params;
  params.envelope_factor = 0.5;
  EXPECT_THROW(DynamicCds(std::vector<Vec2>{{0.0, 0.0}}, params),
               std::invalid_argument);
}

TEST(DynEngine, ViewFeedsSelfHealingReconcile) {
  // The engine is one replica among the partition-tolerance machinery:
  // its epoch-stamped view must merge through reconcile() like any
  // SelfHealingCds island view.
  const auto inst = mcds::udg::generate_instance({.nodes = 80}, 13);
  DynamicCds engine(inst.points);
  mcds::sim::Rng rng(31);
  for (int step = 0; step < 40; ++step) {
    const auto v = static_cast<NodeId>(rng.uniform_int(engine.num_nodes()));
    if (engine.alive(v)) {
      engine.move(v, {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    }
  }
  const auto topo = engine.topology();
  // A stale driver (epoch 0) adopts the engine's fresher view wholesale.
  mcds::dist::SelfHealingCds driver(topo, engine.cds());
  const std::vector<bool> up(engine.num_nodes(), true);
  const auto report = driver.reconcile({engine.view()}, up);
  EXPECT_NE(report.action, mcds::dist::HealAction::kUnhealable);
  EXPECT_EQ(driver.cds(), engine.cds());
  EXPECT_GE(driver.epoch(), engine.epoch());
}

TEST(DynEngine, IndependentEnginesRunConcurrently) {
  // The engine has no hidden global state: four engines on disjoint data
  // churn in parallel (exercised under TSan by the sanitizer job).
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &failures] {
      const auto seed = static_cast<std::uint64_t>(t + 1);
      const auto pts = cluster({0.0, 0.0}, 40, 5.0, seed);
      DynamicCds engine(pts);
      mcds::sim::Rng rng(seed * 7919);
      for (int step = 0; step < 120; ++step) {
        const auto v =
            static_cast<NodeId>(rng.uniform_int(engine.num_nodes()));
        if (engine.alive(v)) {
          engine.move(v, {rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
        } else {
          engine.revive(v, {rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
        }
        if (!engine.check().ok) ++failures[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
