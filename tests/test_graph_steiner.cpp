#include "graph/steiner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"

namespace mcds::graph {
namespace {

TEST(ShortestPathAugment, BridgesPathEndpoints) {
  const Graph g = test::make_path(6);
  const auto added = shortest_path_augment(g, {0, 5});
  EXPECT_EQ(added.size(), 4u);
  std::vector<NodeId> all{0, 5};
  all.insert(all.end(), added.begin(), added.end());
  EXPECT_TRUE(is_connected_subset(g, all));
}

TEST(ShortestPathAugment, NoopWhenAlreadyConnected) {
  const Graph g = test::make_cycle(8);
  EXPECT_TRUE(shortest_path_augment(g, {2, 3, 4}).empty());
  EXPECT_TRUE(shortest_path_augment(g, {5}).empty());
}

TEST(ShortestPathAugment, PicksShortRoutes) {
  // Grid: connecting opposite corners of a 3x3 grid needs exactly 3
  // interior nodes (a 4-hop path).
  const Graph g = test::make_grid(3, 3);
  const auto added = shortest_path_augment(g, {0, 8});
  EXPECT_EQ(added.size(), 3u);
}

TEST(ShortestPathAugment, MultipleComponentsAllMerged) {
  const Graph g = test::make_path(9);
  const auto added = shortest_path_augment(g, {0, 4, 8});
  std::vector<NodeId> all{0, 4, 8};
  all.insert(all.end(), added.begin(), added.end());
  EXPECT_TRUE(is_connected_subset(g, all));
  EXPECT_EQ(added.size(), 6u);  // every interior node
}

TEST(ShortestPathAugment, Preconditions) {
  const Graph g = test::make_path(4);
  EXPECT_THROW((void)shortest_path_augment(g, {}), std::invalid_argument);
  EXPECT_THROW((void)shortest_path_augment(g, {9}), std::invalid_argument);
  const Graph disc = test::make_graph(4, {{0, 1}});
  EXPECT_THROW((void)shortest_path_augment(disc, {0, 2}),
               std::invalid_argument);
}

// Pins which connectors the augment returns, in which order, over 200
// seeded unit-disk graphs. Each seed set is a shuffled random sample of
// one topology component, so it spans several member components; every
// tenth input also takes a seed from another component and every
// twenty-fifth repeats one, and both must throw.
TEST(ShortestPathAugment, SeededGolden) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  const auto fold = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t multi = 0;  // inputs whose seeds span >= 3 member components
  std::size_t connectors = 0;
  std::size_t throws = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed * 31 + 5);
    const std::size_t n = 40 + rng.uniform_int(160);
    const double side = rng.uniform(0.7, 1.0) * std::sqrt(static_cast<double>(n));
    const Graph g = udg::build_udg(udg::deploy_uniform_square(n, side, rng));
    const auto [label, count] = connected_components(g);
    const std::uint32_t home = label[rng.uniform_int(n)];
    std::vector<NodeId> seeds;
    NodeId outsider = kNoNode;
    for (NodeId v = 0; v < n; ++v) {
      if (label[v] != home) {
        if (outsider == kNoNode) outsider = v;
      } else if (rng.uniform01() < 0.3) {
        seeds.push_back(v);
      }
    }
    if (seeds.empty()) seeds.push_back(static_cast<NodeId>(
        std::find(label.begin(), label.end(), home) - label.begin()));
    for (std::size_t i = seeds.size(); i > 1; --i) {
      std::swap(seeds[i - 1], seeds[rng.uniform_int(i)]);
    }
    const bool stray = seed % 10 == 0 && outsider != kNoNode;
    const bool repeat = seed % 25 == 0;
    if (stray) seeds.push_back(outsider);
    if (repeat) seeds.push_back(seeds.front());
    if (!stray && !repeat && count_components_subset(g, seeds) >= 3) ++multi;
    fold(seed);
    try {
      const std::vector<NodeId> added = shortest_path_augment(g, seeds);
      EXPECT_FALSE(stray || repeat) << "seed " << seed;
      std::vector<NodeId> all = seeds;
      all.insert(all.end(), added.begin(), added.end());
      EXPECT_TRUE(is_connected_subset(g, all)) << "seed " << seed;
      fold(added.size());
      for (const NodeId v : added) fold(v);
      connectors += added.size();
    } catch (const std::invalid_argument&) {
      EXPECT_TRUE(stray || repeat) << "seed " << seed;
      fold(~std::uint64_t{0});
      ++throws;
    }
  }
  EXPECT_GE(multi, 100u);
  EXPECT_GE(throws, 20u);
  EXPECT_EQ(connectors, 1609u);
  EXPECT_EQ(h, 0xc8e02973b622a495u) << std::hex << "observed: 0x" << h;
}

}  // namespace
}  // namespace mcds::graph
