// GridIndex: the persistent half of build_udg. Two contracts under
// test. First, build_graph() must be byte-identical (offsets and flat
// neighbor array) to the batch builder at the same alive positions.
// Second, every event's emitted EdgeDelta must be *exact*: replaying the
// deltas into a DeltaGraph seeded from the initial topology must track a
// brute-force O(n^2) unit-disk oracle through arbitrary event streams.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "udg/builder.hpp"
#include "udg/grid_index.hpp"

namespace {

using mcds::geom::Vec2;
using mcds::graph::DeltaGraph;
using mcds::graph::EdgeDelta;
using mcds::graph::Graph;
using mcds::graph::NodeId;
using mcds::udg::GridIndex;

// Unit-disk graph over the alive slots of (pos, alive), brute force.
Graph oracle_udg(const std::vector<Vec2>& pos,
                 const std::vector<bool>& alive, double radius) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  const double r2 = radius * radius;
  for (NodeId u = 0; u < pos.size(); ++u) {
    if (!alive[u]) continue;
    for (NodeId v = u + 1; v < pos.size(); ++v) {
      if (!alive[v]) continue;
      if (mcds::geom::dist2(pos[u], pos[v]) <= r2) edges.emplace_back(u, v);
    }
  }
  return Graph(pos.size(), edges);
}

void expect_same_csr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  EXPECT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()));
  const auto an = a.flat_neighbors();
  const auto bn = b.flat_neighbors();
  EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
}

std::vector<Vec2> random_points(std::size_t n, double side,
                                std::uint64_t seed) {
  mcds::sim::Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return pts;
}

TEST(DynGridIndex, BulkLoadMatchesBatchBuilder) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto pts = random_points(250, 9.0, seed);
    const GridIndex gi(pts, 1.0);
    expect_same_csr(gi.build_graph(), mcds::udg::build_udg(pts, 1.0));
    EXPECT_EQ(gi.alive_count(), pts.size());
  }
}

TEST(DynGridIndex, DeltasAreCanonicalAndSorted) {
  GridIndex gi(1.0);
  EdgeDelta scratch;
  gi.insert({0.0, 0.0}, scratch);
  gi.insert({0.5, 0.0}, scratch);
  gi.insert({0.5, 0.5}, scratch);
  EdgeDelta d;
  const NodeId v = gi.insert({0.25, 0.25}, d);
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE(d.removed.empty());
  const std::vector<std::pair<NodeId, NodeId>> want{{0, 3}, {1, 3}, {2, 3}};
  EXPECT_EQ(d.added, want);
  d.clear();
  gi.erase(v, d);
  EXPECT_TRUE(d.added.empty());
  EXPECT_EQ(d.removed, want);
}

TEST(DynGridIndex, MoveEmitsOnlyTheNetChange) {
  GridIndex gi(1.0);
  EdgeDelta scratch;
  gi.insert({0.0, 0.0}, scratch);
  gi.insert({0.9, 0.0}, scratch);  // neighbor of 0
  gi.insert({5.0, 0.0}, scratch);  // far away
  EdgeDelta d;
  gi.move(0, {4.2, 0.0}, d);  // leaves 1's disk, enters 2's
  const std::vector<std::pair<NodeId, NodeId>> added{{0, 2}};
  const std::vector<std::pair<NodeId, NodeId>> removed{{0, 1}};
  EXPECT_EQ(d.added, added);
  EXPECT_EQ(d.removed, removed);
  d.clear();
  gi.move(0, {4.2, 0.0}, d);  // no-op move
  EXPECT_TRUE(d.empty());
}

TEST(DynGridIndex, LivenessErrors) {
  GridIndex gi(1.0);
  EdgeDelta d;
  const NodeId v = gi.insert({1.0, 1.0}, d);
  EXPECT_THROW(gi.revive(v, {0.0, 0.0}, d), std::invalid_argument);
  gi.erase(v, d);
  EXPECT_THROW(gi.erase(v, d), std::invalid_argument);
  EXPECT_THROW(gi.move(v, {0.0, 0.0}, d), std::invalid_argument);
  EXPECT_THROW(gi.move(9, {0.0, 0.0}, d), std::invalid_argument);
  gi.revive(v, {2.0, 2.0}, d);
  EXPECT_TRUE(gi.alive(v));
  EXPECT_EQ(gi.position(v).x, 2.0);
}

TEST(DynGridIndex, EmptyCellsAreReclaimed) {
  GridIndex gi(1.0);
  EdgeDelta d;
  gi.insert({0.5, 0.5}, d);
  gi.insert({7.5, 7.5}, d);
  EXPECT_EQ(gi.occupied_cells(), 2u);
  gi.erase(1, d);
  EXPECT_EQ(gi.occupied_cells(), 1u);
  gi.erase(0, d);
  EXPECT_EQ(gi.occupied_cells(), 0u);
  EXPECT_EQ(gi.size(), 2u);  // ids survive death
  EXPECT_EQ(gi.alive_count(), 0u);
}

TEST(DynGridIndex, NeighborQueries) {
  GridIndex gi(1.0);
  EdgeDelta d;
  gi.insert({0.0, 0.0}, d);
  gi.insert({0.8, 0.0}, d);
  gi.insert({0.0, 0.9}, d);
  gi.insert({3.0, 3.0}, d);
  std::vector<NodeId> out;
  gi.alive_neighbors(0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2}));
  gi.alive_in_range({0.1, 0.1}, /*exclude=*/gi.size(), out);
  EXPECT_EQ(out, (std::vector<NodeId>{0, 1, 2}));
  gi.erase(1, d);
  gi.alive_neighbors(0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
}

// The heart of the tentpole contract: stream random events, replay each
// emitted delta into a DeltaGraph, and demand both the DeltaGraph and a
// fresh build_graph() agree with the brute-force oracle at every step.
TEST(DynGridIndex, RandomizedEventStreamDifferential) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    mcds::sim::Rng rng(seed * 1299709 + 7);
    const double side = 6.0;
    auto pts = random_points(40, side, seed);
    std::vector<bool> alive(pts.size(), true);
    GridIndex gi(pts, 1.0);
    DeltaGraph dg(gi.build_graph());
    EdgeDelta d;
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.uniform01();
      d.clear();
      if (roll < 0.55) {  // jitter an alive node
        std::vector<NodeId> candidates;
        for (NodeId v = 0; v < pts.size(); ++v) {
          if (alive[v]) candidates.push_back(v);
        }
        if (candidates.empty()) continue;
        const NodeId v = candidates[rng.uniform_int(candidates.size())];
        pts[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
        gi.move(v, pts[v], d);
      } else if (roll < 0.70) {  // crash
        std::vector<NodeId> candidates;
        for (NodeId v = 0; v < pts.size(); ++v) {
          if (alive[v]) candidates.push_back(v);
        }
        if (candidates.empty()) continue;
        const NodeId v = candidates[rng.uniform_int(candidates.size())];
        alive[v] = false;
        gi.erase(v, d);
      } else if (roll < 0.85) {  // recover
        std::vector<NodeId> candidates;
        for (NodeId v = 0; v < pts.size(); ++v) {
          if (!alive[v]) candidates.push_back(v);
        }
        if (candidates.empty()) continue;
        const NodeId v = candidates[rng.uniform_int(candidates.size())];
        pts[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
        alive[v] = true;
        gi.revive(v, pts[v], d);
      } else {  // newcomer
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
        alive.push_back(true);
        const NodeId v = gi.insert(pts.back(), d);
        ASSERT_EQ(v, pts.size() - 1);
        dg.add_node();
      }
      dg.apply(d);
      const Graph want = oracle_udg(pts, alive, 1.0);
      expect_same_csr(dg.materialize(), want);
      if (step % 50 == 0) expect_same_csr(gi.build_graph(), want);
    }
    expect_same_csr(gi.build_graph(), oracle_udg(pts, alive, 1.0));
  }
}

}  // namespace
