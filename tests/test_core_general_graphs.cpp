// The two-phased algorithms never use geometry — phase 1 is first-fit
// over a BFS order and phase 2 is component merging — so they must
// produce valid CDSs on arbitrary connected graphs (only the *ratio*
// proofs need the UDG). These property tests run the full construction
// stack on structured and random non-UDG topologies.

#include <gtest/gtest.h>

#include "baselines/guha_khuller.hpp"
#include "baselines/wu_li.hpp"
#include "core/greedy_connect.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "dist/distributed_cds.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace mcds {
namespace {

using graph::Graph;
using graph::NodeId;

// Connected Erdős–Rényi-ish graph: random edges plus a random spanning
// tree to guarantee connectivity.
Graph random_connected_graph(std::size_t n, double p, sim::Rng& rng) {
  test::Edges edges;
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 1; i < n; ++i) {
    edges.emplace_back(order[i], order[rng.uniform_int(i)]);
  }
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.uniform01() < p) edges.emplace_back(i, j);
    }
  }
  return Graph(n, edges);
}

// d-dimensional hypercube.
Graph hypercube(std::size_t dims) {
  const std::size_t n = std::size_t{1} << dims;
  test::Edges edges;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t b = 0; b < dims; ++b) {
      const NodeId w = v ^ (NodeId{1} << b);
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return Graph(n, edges);
}

void expect_all_valid(const Graph& g, const std::string& label) {
  const auto waf = core::waf_cds(g, 0);
  EXPECT_TRUE(core::is_cds(g, waf.cds)) << label << " (waf)";
  EXPECT_TRUE(core::is_maximal_independent_set(g, waf.phase1.mis))
      << label << " (waf mis)";
  const auto greedy = core::greedy_cds(g, 0);
  EXPECT_TRUE(core::is_cds(g, greedy.cds)) << label << " (greedy)";
  EXPECT_TRUE(core::is_cds(g, baselines::guha_khuller_cds(g)))
      << label << " (gk)";
  EXPECT_TRUE(core::is_cds(g, baselines::wu_li_cds(g)))
      << label << " (wu-li)";
  const auto dist = dist::distributed_waf_cds(g);
  EXPECT_TRUE(core::is_cds(g, dist.cds)) << label << " (distributed)";
  const auto repair = core::repair_cds(g, waf.cds);
  EXPECT_TRUE(core::is_cds(g, repair.cds)) << label << " (repair)";
}

TEST(GeneralGraphs, StructuredFamilies) {
  expect_all_valid(test::make_path(17), "path-17");
  expect_all_valid(test::make_cycle(16), "cycle-16");
  expect_all_valid(test::make_star(20), "star-20");
  expect_all_valid(test::make_complete(9), "K9");
  expect_all_valid(test::make_grid(5, 7), "grid-5x7");
  expect_all_valid(hypercube(5), "Q5");
}

TEST(GeneralGraphs, HypercubeMisHasNoUdgStructure) {
  // Q5's independence number is 16 — way above the UDG 5-per-disk
  // limit; phase 1 still yields a maximal independent set.
  const Graph g = hypercube(5);
  const auto waf = core::waf_cds(g, 0);
  EXPECT_EQ(waf.phase1.mis.size(), 16u);  // even-parity vertices
}

class GeneralGraphsRandom
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralGraphsRandom, AllAlgorithmsValid) {
  sim::Rng rng(GetParam() * 101 + 7);
  const std::size_t n = 20 + rng.uniform_int(80);
  const double p = 0.02 + rng.uniform01() * 0.15;
  const Graph g = random_connected_graph(n, p, rng);
  ASSERT_TRUE(graph::is_connected(g));
  expect_all_valid(g, "gnp");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralGraphsRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

// On general graphs the UDG ratio bound does not apply, but the
// structural inequality |I ∪ C| <= 2|I| still must (each greedy
// connector merges >= 2 components).
class GeneralGraphsStructure
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralGraphsStructure, GreedyConnectorBudget) {
  sim::Rng rng(GetParam() * 53 + 11);
  const Graph g = random_connected_graph(60, 0.05, rng);
  const auto greedy = core::greedy_cds(g, 0);
  EXPECT_LE(greedy.cds.size(), 2 * greedy.phase1.mis.size());
  for (const auto& s : greedy.steps) EXPECT_GE(s.gain, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralGraphsStructure,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mcds
