// Randomized differential suite for the incremental engine: 200 churn
// streams (seeded, deterministic), each a mixed sequence of insert /
// move / erase / revive events. After *every* event the maintained set
// must be a valid CDS forest of the alive topology and inside the
// paper's 4|MIS|+12 envelope. At checkpoints the engine's materialized
// topology must be byte-identical to a brute-force O(n^2) unit-disk
// build at the same positions, and the engine's validity verdict must
// equal check_cds_components run from scratch on that rebuilt topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "dyn/dynamic_cds.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "sim/rng.hpp"

namespace {

using mcds::geom::Vec2;
using mcds::graph::Graph;
using mcds::graph::NodeId;
using mcds::dyn::DynamicCds;

Graph oracle_udg(const std::vector<Vec2>& pos, const std::vector<bool>& alive,
                 double radius) {
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

class DynChurnStream : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynChurnStream, AlwaysValidAndCheckpointExact) {
  const std::uint64_t seed = GetParam();
  mcds::sim::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const double side = 4.0 + static_cast<double>(seed % 5);
  const std::size_t n0 = 20 + seed % 50;
  // Every seventh stream is delete-heavy so small populations regularly
  // churn all the way down to (near-)empty and back.
  const bool delete_heavy = seed % 7 == 0;

  std::vector<Vec2> pos;
  pos.reserve(n0);
  for (std::size_t i = 0; i < n0; ++i) {
    pos.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  std::vector<bool> alive(n0, true);
  DynamicCds engine(pos);

  const auto checkpoint = [&] {
    const Graph want = oracle_udg(pos, alive, 1.0);
    const Graph got = engine.topology();
    const auto go = got.offsets();
    const auto wo = want.offsets();
    ASSERT_TRUE(std::equal(go.begin(), go.end(), wo.begin(), wo.end()));
    const auto gn = got.flat_neighbors();
    const auto wn = want.flat_neighbors();
    ASSERT_TRUE(std::equal(gn.begin(), gn.end(), wn.begin(), wn.end()));
    // Re-derive the validity verdict from scratch on the rebuilt
    // topology and demand it matches the engine's own check() bytes.
    std::vector<NodeId> alive_list;
    for (NodeId v = 0; v < pos.size(); ++v) {
      if (alive[v]) alive_list.push_back(v);
    }
    const auto induced = mcds::graph::induced_subgraph(want, alive_list);
    std::vector<NodeId> local_cds;
    for (const NodeId v : engine.cds()) {
      const auto it =
          std::lower_bound(alive_list.begin(), alive_list.end(), v);
      ASSERT_TRUE(it != alive_list.end() && *it == v)
          << "backbone claims dead node " << v;
      local_cds.push_back(
          static_cast<NodeId>(std::distance(alive_list.begin(), it)));
    }
    const auto scratch =
        mcds::core::check_cds_components(induced.graph, local_cds);
    const auto incremental = engine.check();
    EXPECT_EQ(incremental.ok, scratch.ok);
    EXPECT_EQ(incremental.defect, scratch.defect);
    EXPECT_EQ(incremental.witness, scratch.witness);
    EXPECT_TRUE(scratch.ok) << scratch.describe();
  };

  for (int step = 0; step < 50; ++step) {
    const double roll = rng.uniform01();
    const double erase_band = delete_heavy ? 0.45 : 0.15;
    if (roll < 0.5 - erase_band / 2) {  // move
      std::vector<NodeId> live;
      for (NodeId v = 0; v < pos.size(); ++v) {
        if (alive[v]) live.push_back(v);
      }
      if (live.empty()) continue;
      const NodeId v = live[rng.uniform_int(live.size())];
      pos[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
      engine.move(v, pos[v]);
    } else if (roll < 0.5 + erase_band / 2) {  // erase
      std::vector<NodeId> live;
      for (NodeId v = 0; v < pos.size(); ++v) {
        if (alive[v]) live.push_back(v);
      }
      if (live.empty()) continue;
      const NodeId v = live[rng.uniform_int(live.size())];
      alive[v] = false;
      engine.erase(v);
    } else if (roll < 0.85) {  // revive
      std::vector<NodeId> dead;
      for (NodeId v = 0; v < pos.size(); ++v) {
        if (!alive[v]) dead.push_back(v);
      }
      if (dead.empty()) continue;
      const NodeId v = dead[rng.uniform_int(dead.size())];
      pos[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
      alive[v] = true;
      engine.revive(v, pos[v]);
    } else {  // insert
      pos.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
      alive.push_back(true);
      ASSERT_EQ(engine.insert(pos.back()), pos.size() - 1);
    }
    // The always-valid contract, after every single event.
    const auto check = engine.check();
    ASSERT_TRUE(check.ok) << "seed " << seed << " step " << step << ": "
                          << check.describe();
    ASSERT_LE(engine.cds_size(), 4 * engine.mis_size() + 12)
        << "seed " << seed << " step " << step;
    if (step % 10 == 9) checkpoint();
  }
  checkpoint();
}

INSTANTIATE_TEST_SUITE_P(Streams, DynChurnStream,
                         ::testing::Range<std::uint64_t>(1, 201));

}  // namespace
