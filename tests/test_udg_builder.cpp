#include "udg/builder.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "par/thread_pool.hpp"
#include "test_util.hpp"
#include "udg/deployment.hpp"
#include "udg/grid_index.hpp"

namespace mcds_test {
extern std::atomic<std::size_t> g_largest_alloc;
}  // namespace mcds_test

namespace mcds::udg {
namespace {

using geom::Vec2;

TEST(BuildUdg, TrivialSizes) {
  EXPECT_EQ(build_udg(std::vector<Vec2>{}).num_nodes(), 0u);
  const std::vector<Vec2> one{{1, 1}};
  EXPECT_EQ(build_udg(one).num_nodes(), 1u);
  EXPECT_EQ(build_udg(one).num_edges(), 0u);
}

TEST(BuildUdg, ExactDistanceOneIsAnEdge) {
  // The paper's model: edge iff distance at most one (closed disk).
  const std::vector<Vec2> pts{{0, 0}, {1, 0}, {2.0001, 0}};
  const auto g = build_udg(pts);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(BuildUdg, CustomRadius) {
  const std::vector<Vec2> pts{{0, 0}, {3, 0}};
  EXPECT_EQ(build_udg(pts, 2.9).num_edges(), 0u);
  EXPECT_EQ(build_udg(pts, 3.0).num_edges(), 1u);
  EXPECT_THROW((void)build_udg(pts, 0.0), std::invalid_argument);
  EXPECT_THROW((void)build_udg_naive(pts, -1.0), std::invalid_argument);
}

TEST(BuildUdg, NodesInSameCell) {
  const std::vector<Vec2> pts{{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}};
  const auto g = build_udg(pts);
  // (0.1,0.1)-(0.9,0.9) is sqrt(1.28) > 1 apart; the other two pairs are
  // within 1.
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(BuildUdg, WideSpreadMatchesNaive) {
  // Cells spanning more than 2^32 columns and rows, negative ones too.
  // The first three points are where a key packing (row << 32) | col
  // aliases cells and loses the 1-2 edge.
  std::vector<Vec2> pts{{0, 0},
                        {4294967295.5, 0},
                        {4294967296.2, 0},
                        {-4294967296.6, -3},
                        {-4294967295.9, -3.5}};
  sim::Rng rng(2008);
  for (const double cx :
       {-1e12, -6e9, -4294967296.0, 0.0, 4294967296.0, 1e12}) {
    for (const double cy : {-5e9, -1.5, 4294967296.0}) {
      for (int k = 0; k < 12; ++k) {
        pts.push_back({cx + rng.uniform(-1, 1), cy + rng.uniform(-1, 1)});
      }
    }
  }
  const auto want = build_udg_naive(pts);
  EXPECT_TRUE(want.has_edge(1, 2));
  EXPECT_TRUE(want.has_edge(3, 4));
  EXPECT_GT(want.num_edges(), pts.size());
  EXPECT_TRUE(test::same_csr(build_udg(pts), want));
  EXPECT_TRUE(test::same_csr(GridIndex(pts, 1.0).build_graph(), want));
}

TEST(BuildUdg, FarApartPointsAllocateNoBoundingBox) {
  // Cells 10^9 apart on both axes: an array over the bounding box, or
  // over either axis alone, would hold at least 10^9 entries.
  const std::vector<Vec2> pts{{0, 0}, {1e9, 1e9}, {-1e9, 1e9}, {0.5, 0.5}};
  par::ThreadPool pool(2);
  mcds_test::g_largest_alloc.store(0);
  const auto serial = build_udg(pts);
  const auto pooled = build_udg(pts, 1.0, pool);
  const auto indexed = GridIndex(pts, 1.0).build_graph();
  EXPECT_LT(mcds_test::g_largest_alloc.load(), 4096u);
  EXPECT_EQ(serial.num_edges(), 1u);
  EXPECT_TRUE(serial.has_edge(0, 3));
  EXPECT_TRUE(test::same_csr(pooled, serial));
  EXPECT_TRUE(test::same_csr(indexed, serial));
}

// Property sweep: grid construction must be identical to the quadratic
// reference, including boundary-exact distances and negative
// coordinates.
class BuildUdgRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuildUdgRandom, MatchesNaive) {
  sim::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_int(250);
  std::vector<Vec2> pts;
  pts.reserve(n);
  // Mix of scales, including negative coordinates (exercises cell
  // flooring) and duplicated positions (distance 0).
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-6, 9), rng.uniform(-6, 9)});
  }
  if (n > 10) pts[5] = pts[3];
  const double radius = 0.5 + rng.uniform01() * 1.5;
  const auto fast = build_udg(pts, radius);
  const auto slow = build_udg_naive(pts, radius);
  ASSERT_EQ(fast.num_nodes(), slow.num_nodes());
  EXPECT_EQ(fast.num_edges(), slow.num_edges());
  EXPECT_EQ(fast.edges(), slow.edges());
  EXPECT_TRUE(test::same_csr(fast, slow));
  EXPECT_TRUE(test::same_csr(GridIndex(pts, radius).build_graph(), slow));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuildUdgRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mcds::udg
