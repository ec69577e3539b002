// Differential tests for the parallel overloads of the UDG builder and
// the validation sweeps: at every worker count they must produce exactly
// what the serial implementations produce — same edge set, same
// verdicts, same witnesses.

#include <gtest/gtest.h>

#include <vector>

#include "core/validate.hpp"
#include "geom/vec2.hpp"
#include "par/thread_pool.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::geom::Vec2;
using mcds::graph::NodeId;
using mcds::par::ThreadPool;

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

TEST(ParUdgBuild, MatchesSerialBuilderAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto pts = random_points(500, 12.0, seed);
      const auto serial = mcds::udg::build_udg(pts, 1.0);
      const auto pooled = mcds::udg::build_udg(pts, 1.0, pool);
      ASSERT_EQ(pooled.num_nodes(), serial.num_nodes());
      ASSERT_EQ(pooled.num_edges(), serial.num_edges())
          << "threads " << threads << " seed " << seed;
      EXPECT_EQ(pooled.edges(), serial.edges())
          << "threads " << threads << " seed " << seed;
      EXPECT_TRUE(mcds::test::same_csr(pooled, serial))
          << "threads " << threads << " seed " << seed;
    }
  }
}

TEST(ParUdgBuild, WideSpreadMatchesSerialAcrossThreadCounts) {
  // Clusters scattered over more than 2^34 cells per axis, negative
  // coordinates included, with enough points for several chunks per
  // worker.
  mcds::sim::Rng rng(31);
  std::vector<Vec2> pts;
  for (int c = 0; c < 40; ++c) {
    const double cx = rng.uniform(-0x1p34, 0x1p34);
    const double cy = rng.uniform(-0x1p34, 0x1p34);
    for (int k = 0; k < 50; ++k) {
      pts.push_back({cx + rng.uniform(-3, 3), cy + rng.uniform(-3, 3)});
    }
  }
  const auto serial = mcds::udg::build_udg(pts, 1.0);
  EXPECT_TRUE(mcds::test::same_csr(serial, mcds::udg::build_udg_naive(pts)));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(
        mcds::test::same_csr(mcds::udg::build_udg(pts, 1.0, pool), serial))
        << "threads " << threads;
  }
}

TEST(ParUdgBuild, HandlesSmallInputs) {
  ThreadPool pool(4);
  EXPECT_EQ(mcds::udg::build_udg({}, 1.0, pool).num_nodes(), 0u);
  const std::vector<Vec2> one{{0.5, 0.5}};
  EXPECT_EQ(mcds::udg::build_udg(one, 1.0, pool).num_edges(), 0u);
  const std::vector<Vec2> pair{{0.0, 0.0}, {1.0, 0.0}};
  // Closed-disk model: distance exactly radius is an edge.
  EXPECT_EQ(mcds::udg::build_udg(pair, 1.0, pool).num_edges(), 1u);
}

TEST(ParUdgBuild, RejectsNonPositiveRadius) {
  ThreadPool pool(2);
  const auto pts = random_points(10, 3.0, 1);
  EXPECT_THROW(mcds::udg::build_udg(pts, 0.0, pool), std::invalid_argument);
  EXPECT_THROW(mcds::udg::build_udg(pts, -1.0, pool), std::invalid_argument);
}

TEST(ParValidate, DominationMatchesSerialOnValidAndBrokenSets) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto inst = mcds::udg::generate_instance(
          {.nodes = 400, .side = 11.0}, seed);
      const auto& g = inst.graph;
      // A trivially valid dominating set: every node.
      std::vector<NodeId> all(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
      EXPECT_EQ(mcds::core::is_dominating_set(g, all),
                mcds::core::is_dominating_set(g, all, pool));
      // Progressively smaller prefixes flip the verdict at some point;
      // parallel and serial must flip at exactly the same prefixes.
      for (const std::size_t keep :
           {g.num_nodes() / 2, g.num_nodes() / 8, std::size_t{1}}) {
        const std::span<const NodeId> prefix(all.data(), keep);
        EXPECT_EQ(mcds::core::is_dominating_set(g, prefix),
                  mcds::core::is_dominating_set(g, prefix, pool))
            << "threads " << threads << " seed " << seed << " keep " << keep;
      }
    }
  }
}

TEST(ParValidate, CheckCdsWitnessesAreThreadCountInvariant) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 300, .side = 10.0}, seed);
    const auto& g = inst.graph;
    // An undersized set leaves undominated nodes; the reported witness
    // must be identical serial vs pooled (lowest-index merge rule).
    const std::vector<NodeId> tiny{0};
    const auto serial = mcds::core::check_cds(g, tiny);
    const auto p2 = mcds::core::check_cds(g, tiny, pool2);
    const auto p8 = mcds::core::check_cds(g, tiny, pool8);
    EXPECT_EQ(serial.ok, p2.ok);
    EXPECT_EQ(serial.defect, p2.defect);
    EXPECT_EQ(serial.witness, p2.witness);
    EXPECT_EQ(serial.witness2, p2.witness2);
    EXPECT_EQ(serial.ok, p8.ok);
    EXPECT_EQ(serial.defect, p8.defect);
    EXPECT_EQ(serial.witness, p8.witness);
    EXPECT_EQ(serial.witness2, p8.witness2);
  }
}

TEST(ParValidate, IsCdsAgreesWithSerialOnSolverOutput) {
  ThreadPool pool(4);
  const auto inst = mcds::udg::generate_instance(
      {.nodes = 250, .side = 9.0}, 5);
  const auto& g = inst.graph;
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  EXPECT_EQ(mcds::core::is_cds(g, all), mcds::core::is_cds(g, all, pool));
  EXPECT_EQ(mcds::core::is_cds(g, {}), mcds::core::is_cds(g, {}, pool));
}

}  // namespace
