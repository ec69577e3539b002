// Differential suite for the incremental phase-2 connector engine:
// the union-find + lazy-gain-queue implementation (greedy_connectors)
// must produce the *same* connector sequence and GreedyStep trace —
// node, q_before and gain at every step — as the per-round full-rescan
// reference (greedy_connectors_reference), on the regression corpus
// and on 200 random UDG instances. The stall patch, bridge_gap(), is
// held to a member-ascending reference scan the same way.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/connector_engine.hpp"
#include "core/greedy_connect.hpp"
#include "core/validate.hpp"
#include "graph/subgraph.hpp"
#include "graph/union_find.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"
#include "udg/instance.hpp"

namespace mcds::core {
namespace {

void expect_identical_traces(const Graph& g, const std::vector<NodeId>& mis) {
  const auto [inc_connectors, inc_steps] = greedy_connectors(g, mis);
  const auto [ref_connectors, ref_steps] =
      greedy_connectors_reference(g, mis);
  ASSERT_EQ(inc_connectors, ref_connectors);
  ASSERT_EQ(inc_steps.size(), ref_steps.size());
  for (std::size_t i = 0; i < inc_steps.size(); ++i) {
    EXPECT_EQ(inc_steps[i].node, ref_steps[i].node) << "step " << i;
    EXPECT_EQ(inc_steps[i].q_before, ref_steps[i].q_before) << "step " << i;
    EXPECT_EQ(inc_steps[i].gain, ref_steps[i].gain) << "step " << i;
  }
}

TEST(GreedyIncrementalDifferential, PathAndStar) {
  for (const std::size_t n : {2u, 3u, 5u, 9u, 17u}) {
    const Graph path = test::make_path(n);
    expect_identical_traces(path, bfs_first_fit_mis(path, 0).mis);
  }
  const Graph star = test::make_star(8);
  expect_identical_traces(star, bfs_first_fit_mis(star, 1).mis);
}

TEST(GreedyIncrementalDifferential, AlreadyConnectedSeedYieldsNoSteps) {
  // A single dominator (star center) leaves q = 1 from the start.
  const Graph star = test::make_star(6);
  const auto [connectors, steps] =
      greedy_connectors(star, bfs_first_fit_mis(star, 0).mis);
  EXPECT_TRUE(connectors.empty());
  EXPECT_TRUE(steps.empty());
}

// The three fixed instances pinned by test_regression_corpus.cpp.
TEST(GreedyIncrementalDifferential, RegressionCorpusInstances) {
  struct CorpusEntry {
    std::size_t nodes;
    double side;
    std::uint64_t seed;
  };
  constexpr CorpusEntry kCorpus[] = {
      {80, 7.0, 101}, {150, 10.0, 202}, {300, 12.0, 303}};
  for (const CorpusEntry& c : kCorpus) {
    udg::InstanceParams params;
    params.nodes = c.nodes;
    params.side = c.side;
    const auto inst = udg::generate_largest_component_instance(params, c.seed);
    expect_identical_traces(inst.graph, bfs_first_fit_mis(inst.graph, 0).mis);
  }
}

// 200 random instances across sizes and densities. Seeds are split into
// parameterized shards to keep per-test runtime and failure locality.
class GreedyIncrementalRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GreedyIncrementalRandom, TraceMatchesReferenceOnTenInstances) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t seed = GetParam() * 10 + i;  // seeds 10..209
    udg::InstanceParams params;
    params.nodes = 40 + (seed % 6) * 25;             // 40..165 nodes
    params.side = 5.0 + static_cast<double>(seed % 4) * 2.0;  // 5..11
    const auto inst =
        udg::generate_largest_component_instance(params, seed * 7919);
    const auto phase1 = bfs_first_fit_mis(inst.graph, 0);
    expect_identical_traces(inst.graph, phase1.mis);
    // Sanity: the engine-backed greedy_cds is still a valid CDS.
    const auto r = greedy_cds(inst.graph, 0);
    EXPECT_TRUE(is_cds(inst.graph, r.cds));
  }
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeeds, GreedyIncrementalRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// The engine reads its graph through a view: a temporary graph would
// dangle, so it must not compile.
static_assert(std::is_constructible_v<ConnectorEngine, const Graph&,
                                      std::span<const NodeId>>);
static_assert(!std::is_constructible_v<ConnectorEngine, Graph,
                                       std::span<const NodeId>>);

TEST(ConnectorEngine, RejectsBadAndDuplicateMembers) {
  const Graph g = test::make_path(4);
  const std::vector<NodeId> out_of_range{0, 7};
  EXPECT_THROW(ConnectorEngine(g, out_of_range), std::invalid_argument);
  const std::vector<NodeId> duplicated{0, 0};
  EXPECT_THROW(ConnectorEngine(g, duplicated), std::invalid_argument);
}

TEST(ConnectorEngine, ThrowsLikeReferenceOnNonMaximalSeed) {
  const Graph g = test::make_path(7);
  const std::vector<NodeId> not_maximal{0, 6};
  EXPECT_THROW((void)greedy_connectors(g, not_maximal), std::logic_error);
  EXPECT_THROW((void)greedy_connectors_reference(g, not_maximal),
               std::logic_error);
}

TEST(ConnectorEngine, ComponentCountTracksSteps) {
  const Graph g = test::make_path(9);
  const auto mis = bfs_first_fit_mis(g, 0).mis;  // {0,2,4,6,8}
  ConnectorEngine engine(g, mis);
  EXPECT_EQ(engine.components(), mis.size());
  std::size_t q = mis.size();
  while (!engine.done()) {
    const GreedyStep step = engine.select_next();
    EXPECT_EQ(step.q_before, q);
    q -= step.gain;
    EXPECT_EQ(engine.components(), q);
  }
  EXPECT_EQ(q, 1u);
}

// A non-independent member seed must match subset_components semantics:
// the engine unites member-member edges at construction.
TEST(ConnectorEngine, NonIndependentSeedCountsComponentsCorrectly) {
  const Graph g = test::make_path(6);
  const std::vector<NodeId> members{0, 1, 3, 4};  // {0,1} and {3,4}
  ConnectorEngine engine(g, members);
  EXPECT_EQ(engine.components(), 2u);
  const GreedyStep step = engine.select_next();
  EXPECT_EQ(step.node, 2u);
  EXPECT_EQ(step.gain, 1u);
  EXPECT_TRUE(engine.done());
}

// Members exactly 3 apart on a path: no node touches two of them, so the
// engine stalls at once, and each bridge_gap() admits the first gap's
// pair (scan order member asc, x asc, y asc) and merges two components.
TEST(ConnectorEngine, BridgeGapPatchesThreeHopGapsInScanOrder) {
  const Graph g = test::make_path(10);
  const std::vector<NodeId> members{0, 3, 6, 9};
  ConnectorEngine engine(g, members);
  EXPECT_FALSE(engine.poll().has_value());
  const auto first = engine.bridge_gap();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (std::array<NodeId, 2>{1, 2}));
  EXPECT_EQ(engine.components(), 3u);
  std::vector<NodeId> admitted{(*first)[0], (*first)[1]};
  while (true) {
    while (const auto step = engine.poll()) admitted.push_back(step->node);
    const auto gap = engine.bridge_gap();
    if (!gap) break;
    admitted.insert(admitted.end(), gap->begin(), gap->end());
  }
  EXPECT_EQ(engine.components(), 1u);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(admitted, (std::vector<NodeId>{1, 2, 4, 5, 7, 8}));
}

// Two such paths in one graph: one engine connects each on its own and
// stops at one component per path.
TEST(ConnectorEngine, BridgeGapConnectsDisjointPathsSeparately) {
  const Graph g = test::make_graph(14, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                        {4, 5}, {5, 6}, {7, 8}, {8, 9},
                                        {9, 10}, {10, 11}, {11, 12},
                                        {12, 13}});
  const std::vector<NodeId> members{0, 3, 6, 7, 10, 13};
  ConnectorEngine engine(g, members);
  std::size_t patches = 0;
  while (true) {
    EXPECT_FALSE(engine.poll().has_value());
    if (!engine.bridge_gap()) break;
    ++patches;
    EXPECT_EQ(engine.components(), members.size() - patches);
  }
  EXPECT_EQ(patches, 4u);
  EXPECT_EQ(engine.components(), 2u);
}

// No 3-hop gap: members 6 apart, or already one component. The patch
// finds nothing and leaves the engine as it was.
TEST(ConnectorEngine, BridgeGapWithoutGapChangesNothing) {
  const Graph g = test::make_path(7);
  ConnectorEngine far(g, std::vector<NodeId>{0, 6});
  EXPECT_FALSE(far.poll().has_value());
  EXPECT_FALSE(far.bridge_gap().has_value());
  EXPECT_EQ(far.components(), 2u);
  EXPECT_FALSE(far.poll().has_value());

  ConnectorEngine joined(g, std::vector<NodeId>{2, 3, 4});
  EXPECT_TRUE(joined.done());
  EXPECT_FALSE(joined.bridge_gap().has_value());
  EXPECT_EQ(joined.components(), 1u);
}

// bridge_gap() tests only y's first member neighbor, which is exact only
// at a stall: with candidates still queued it refuses to run.
TEST(ConnectorEngine, BridgeGapRequiresAStall) {
  const Graph g = test::make_path(5);
  ConnectorEngine engine(g, std::vector<NodeId>{0, 2, 4});
  EXPECT_THROW((void)engine.bridge_gap(), std::logic_error);
  while (engine.poll()) {
  }
  EXPECT_TRUE(engine.done());
  EXPECT_FALSE(engine.bridge_gap().has_value());
}

// The stall patch as a from-scratch scan over \p member: the first
// member–x–y–member path whose end members lie in different components,
// scanning member asc, then x asc, then y asc; returns {member, x, y}.
// At a stall no non-member touches two components, so y's first member
// neighbor decides whether y closes a gap.
std::optional<std::array<NodeId, 3>> reference_gap_scan(
    const Graph& g, const std::vector<char>& member) {
  const std::size_t n = g.num_nodes();
  graph::UnionFind uf(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!member[u]) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (member[v]) uf.unite(u, v);
    }
  }
  for (NodeId m = 0; m < n; ++m) {
    if (!member[m]) continue;
    const std::uint32_t root = uf.find(m);
    for (const NodeId x : g.neighbors(m)) {
      if (member[x]) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (member[y]) continue;
        const auto nbrs = g.neighbors(y);
        const auto z = std::find_if(nbrs.begin(), nbrs.end(),
                                    [&](NodeId v) { return member[v]; });
        if (z == nbrs.end() || uf.find(*z) == root) continue;
        return std::array<NodeId, 3>{m, x, y};
      }
    }
  }
  return std::nullopt;
}

// One engine drained to the end — poll() to a stall, bridge_gap(),
// repeat — against a reference that restarts a fresh engine at every
// stall and patches with reference_gap_scan(). Fields run from dense to
// sparse (side 0.4·√n to 1.3·√n), so most hold many topology
// components. Fields 1..200 are seeded with a first-fit MIS over a
// random order, which stalls at 3-hop gaps. Fields 201..260 skip a
// quarter of its picks: the seed no longer dominates, so a node can gain
// its first member neighbor between stalls, which turns gap edges valid
// from both of its sides.
TEST(ConnectorEngine, BridgeGapMatchesReferenceScan) {
  std::size_t stalls = 0;
  std::size_t patches_below_previous = 0;
  for (std::uint64_t seed = 1; seed <= 260; ++seed) {
    sim::Rng rng(seed * 7919);
    const std::size_t n = 50 + rng.uniform_int(2951);  // 50..3000
    const double side =
        (0.4 + 0.9 * rng.uniform01()) * std::sqrt(static_cast<double>(n));
    const Graph g =
        udg::build_udg(udg::deploy_uniform_square(n, side, rng));
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    rng.shuffle(order);
    std::vector<char> member(n, 0);
    std::vector<NodeId> members;
    for (const NodeId v : order) {
      if (seed > 200 && rng.uniform01() < 0.25) continue;
      const auto nbrs = g.neighbors(v);
      if (std::none_of(nbrs.begin(), nbrs.end(),
                       [&](NodeId u) { return member[u]; })) {
        member[v] = 1;
        members.push_back(v);
      }
    }
    const auto add = [&](NodeId v) {
      member[v] = 1;
      members.push_back(v);
    };

    ConnectorEngine engine(g, members);
    std::optional<NodeId> previous;  // member the last patch hung off
    while (true) {
      ConnectorEngine reference(g, members);
      ASSERT_EQ(engine.components(), reference.components()) << seed;
      while (true) {
        const auto got = engine.poll();
        const auto want = reference.poll();
        ASSERT_EQ(got.has_value(), want.has_value()) << seed;
        if (!got) break;
        ASSERT_EQ(got->node, want->node) << seed;
        ASSERT_EQ(got->q_before, want->q_before) << seed;
        ASSERT_EQ(got->gain, want->gain) << seed;
        add(got->node);
      }
      const auto want = reference_gap_scan(g, member);
      const auto got = engine.bridge_gap();
      ASSERT_EQ(got.has_value(), want.has_value()) << seed;
      if (!got) break;
      ++stalls;
      ASSERT_EQ((*got)[0], (*want)[1]) << seed;
      ASSERT_EQ((*got)[1], (*want)[2]) << seed;
      if (previous && (*want)[0] < *previous) ++patches_below_previous;
      previous = (*want)[0];
      add((*got)[0]);
      add((*got)[1]);
    }
    EXPECT_EQ(engine.components(),
              graph::subset_components(g, members).second)
        << seed;
  }
  EXPECT_GE(stalls, 1000u);
  // A patch below the previous one runs through a member admitted since
  // that patch: only re-keying at the next stall can find it.
  EXPECT_GE(patches_below_previous, 1u);
}

}  // namespace
}  // namespace mcds::core
