#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace mcds::graph {
namespace {

TEST(Metrics, EmptyGraph) {
  const GraphMetrics m = compute_metrics(Graph{});
  EXPECT_EQ(m.nodes, 0u);
  EXPECT_EQ(m.edges, 0u);
  EXPECT_EQ(m.components, 0u);
  EXPECT_DOUBLE_EQ(m.avg_degree, 0.0);
}

TEST(Metrics, PathGraph) {
  const GraphMetrics m = compute_metrics(test::make_path(5));
  EXPECT_EQ(m.nodes, 5u);
  EXPECT_EQ(m.edges, 4u);
  EXPECT_EQ(m.min_degree, 1u);
  EXPECT_EQ(m.max_degree, 2u);
  EXPECT_DOUBLE_EQ(m.avg_degree, 8.0 / 5.0);
  EXPECT_EQ(m.components, 1u);
}

TEST(Metrics, StarGraph) {
  const GraphMetrics m = compute_metrics(test::make_star(9));
  EXPECT_EQ(m.min_degree, 1u);
  EXPECT_EQ(m.max_degree, 8u);
  EXPECT_EQ(m.components, 1u);
}

TEST(Metrics, DisconnectedComponentsCounted) {
  const Graph g = test::make_graph(7, {{0, 1}, {2, 3}, {3, 4}});
  const GraphMetrics m = compute_metrics(g);
  EXPECT_EQ(m.components, 4u);  // {0,1}, {2,3,4}, {5}, {6}
  EXPECT_EQ(m.min_degree, 0u);
}

TEST(Metrics, CompleteGraphRegular) {
  const GraphMetrics m = compute_metrics(test::make_complete(6));
  EXPECT_EQ(m.min_degree, 5u);
  EXPECT_EQ(m.max_degree, 5u);
  EXPECT_DOUBLE_EQ(m.avg_degree, 5.0);
}

}  // namespace
}  // namespace mcds::graph
