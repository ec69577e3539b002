// DeltaGraph: the mutable overlay over an immutable CSR base. The
// contract under test is differential — after any interleaving of edge
// flips, neighbors() must present exactly the adjacency a from-scratch
// Graph holds, in the same (ascending) order, and the edit accounting
// must count the edges that differ from the last compacted base.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/delta_graph.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::graph::DeltaGraph;
using mcds::graph::EdgeDelta;
using mcds::graph::Graph;
using mcds::graph::NodeId;

using mcds::test::make_graph;
using mcds::test::make_path;

// Neighbor iteration must be identical (order included) to a rebuilt
// Graph with the same edge set, and materialize() must rebuild its CSR.
void expect_matches(const DeltaGraph& dg, const Graph& oracle) {
  ASSERT_EQ(dg.num_nodes(), oracle.num_nodes());
  ASSERT_EQ(dg.num_edges(), oracle.num_edges());
  for (NodeId u = 0; u < dg.num_nodes(); ++u) {
    EXPECT_EQ(dg.degree(u), oracle.degree(u)) << "node " << u;
    const auto seen = dg.neighbors(u);
    const auto row = oracle.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(seen.begin(), seen.end()),
              std::vector<NodeId>(row.begin(), row.end()))
        << "node " << u;
  }
  EXPECT_THROW((void)dg.neighbors(static_cast<NodeId>(dg.num_nodes())),
               std::invalid_argument);
  EXPECT_TRUE(mcds::test::same_csr(dg.materialize(), oracle));
}

TEST(DynDeltaGraph, UntouchedNodesMirrorBase) {
  const auto inst = mcds::udg::generate_instance({.nodes = 80}, 5);
  DeltaGraph dg(inst.graph);
  expect_matches(dg, inst.graph);
  EXPECT_EQ(dg.overlay_edits(), 0u);
}

TEST(DynDeltaGraph, AddAndRemoveAgainstOracle) {
  DeltaGraph dg(make_path(6));
  dg.remove_edge(2, 3);
  dg.add_edge(0, 5);
  dg.add_edge(3, 1);

  const Graph oracle =
      make_graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 5}, {1, 3}});
  expect_matches(dg, oracle);
  EXPECT_TRUE(dg.has_edge(5, 0));
  EXPECT_FALSE(dg.has_edge(2, 3));
}

TEST(DynDeltaGraph, ExactDeltaErrors) {
  DeltaGraph dg(make_path(4));
  EXPECT_THROW(dg.add_edge(0, 1), std::invalid_argument);   // duplicate
  EXPECT_THROW(dg.remove_edge(0, 2), std::invalid_argument);  // absent
  EXPECT_THROW(dg.add_edge(1, 1), std::invalid_argument);   // self-loop
  EXPECT_THROW(dg.add_edge(0, 9), std::invalid_argument);   // range
  dg.add_edge(0, 2);
  EXPECT_THROW(dg.add_edge(2, 0), std::invalid_argument);  // overlay dup
}

TEST(DynDeltaGraph, CancellingFlipsDrainTheOverlay) {
  DeltaGraph dg(make_path(5));
  // Tombstone a base edge, then restore it: net zero overlay.
  dg.remove_edge(1, 2);
  EXPECT_EQ(dg.overlay_edits(), 2u);
  dg.add_edge(2, 1);
  EXPECT_EQ(dg.overlay_edits(), 0u);
  // Add a novel edge, then drop it again: also net zero.
  dg.add_edge(0, 4);
  EXPECT_EQ(dg.overlay_edits(), 2u);
  dg.remove_edge(0, 4);
  EXPECT_EQ(dg.overlay_edits(), 0u);
  expect_matches(dg, make_path(5));
}

TEST(DynDeltaGraph, AddNodeExtendsIdSpace) {
  DeltaGraph dg(make_path(3));
  const NodeId v = dg.add_node();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(dg.degree(v), 0u);
  dg.add_edge(v, 0);
  const Graph oracle = make_graph(4, {{0, 1}, {1, 2}, {0, 3}});
  expect_matches(dg, oracle);
}

TEST(DynDeltaGraph, ApplyDeltaRemovalsBeforeAdditions) {
  DeltaGraph dg(make_path(4));
  EdgeDelta d;
  d.removed = {{1, 2}};
  d.added = {{0, 2}, {1, 3}};
  EXPECT_FALSE(d.empty());
  dg.apply(d);
  const Graph oracle = make_graph(4, {{0, 1}, {2, 3}, {0, 2}, {1, 3}});
  expect_matches(dg, oracle);
  d.clear();
  EXPECT_TRUE(d.empty());
}

TEST(DynDeltaGraph, CompactionThresholdAndReset) {
  // Tiny threshold so a handful of edits trigger compaction.
  DeltaGraph dg(make_path(8), /*compact_fraction=*/0.25,
                /*compact_min_edits=*/4);
  EXPECT_FALSE(dg.compaction_due());
  dg.add_edge(0, 7);
  dg.add_edge(1, 6);
  EXPECT_TRUE(dg.compaction_due());
  const Graph before = dg.materialize();
  dg.compact();
  EXPECT_EQ(dg.compactions(), 1u);
  EXPECT_EQ(dg.overlay_edits(), 0u);
  EXPECT_FALSE(dg.compaction_due());
  expect_matches(dg, before);
  // Edits after compaction diff against the *new* base.
  dg.remove_edge(0, 7);
  EXPECT_EQ(dg.overlay_edits(), 2u);
}

TEST(DynDeltaGraph, RandomizedDifferential) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst =
        mcds::udg::generate_instance({.nodes = 60, .side = 8.0}, seed);
    // A low edit floor so the flips compact several times.
    DeltaGraph dg(inst.graph, /*compact_fraction=*/0.25,
                  /*compact_min_edits=*/64);
    // Four appended ids join the flips from the start.
    for (int i = 0; i < 4; ++i) dg.add_node();
    const std::size_t n = dg.num_nodes();
    // Track the live edge set alongside, and the set at the last
    // compaction: overlay_edits() counts both directions of every edge
    // in their symmetric difference.
    std::vector<std::vector<char>> has(n, std::vector<char>(n, 0));
    for (const auto& [u, v] : inst.graph.edges()) has[u][v] = has[v][u] = 1;
    auto base = has;
    const auto oracle = [&] {
      mcds::test::Edges edges;
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
          if (has[u][v]) edges.emplace_back(u, v);
        }
      }
      return Graph(n, edges);
    };
    mcds::sim::Rng rng(seed * 977 + 13);
    std::size_t flips = 0;
    for (int step = 0; step < 400; ++step) {
      const auto u = static_cast<NodeId>(rng.uniform_int(n));
      const auto v = static_cast<NodeId>(rng.uniform_int(n));
      if (u == v) continue;
      if (has[u][v]) {
        dg.remove_edge(u, v);
        has[u][v] = has[v][u] = 0;
      } else {
        dg.add_edge(u, v);
        has[u][v] = has[v][u] = 1;
      }
      ++flips;
      if (dg.compaction_due()) {
        dg.compact();
        base = has;
      }
      for (const NodeId w : {u, v}) {
        std::size_t deg = 0;
        for (NodeId x = 0; x < n; ++x) deg += has[w][x] ? 1 : 0;
        EXPECT_EQ(dg.degree(w), deg) << "node " << w << " step " << step;
      }
      EXPECT_EQ(dg.has_edge(u, v), has[u][v] != 0) << "step " << step;
      EXPECT_EQ(dg.has_edge(v, u), has[u][v] != 0) << "step " << step;
      std::size_t differ = 0;
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) differ += has[a][b] != base[a][b];
      }
      EXPECT_EQ(dg.overlay_edits(), 2 * differ) << "step " << step;
      if (flips % 50 == 0) expect_matches(dg, oracle());
    }
    EXPECT_GE(dg.compactions(), 2u);
    expect_matches(dg, oracle());
  }
}

}  // namespace
