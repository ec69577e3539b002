#include "udg/mobility.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "udg/builder.hpp"

namespace mcds::udg {
namespace {

void expect_same_csr(const graph::Graph& got, const graph::Graph& want) {
  const auto go = got.offsets();
  const auto wo = want.offsets();
  ASSERT_TRUE(std::equal(go.begin(), go.end(), wo.begin(), wo.end()));
  const auto gn = got.flat_neighbors();
  const auto wn = want.flat_neighbors();
  ASSERT_TRUE(std::equal(gn.begin(), gn.end(), wn.begin(), wn.end()));
}

WaypointParams small_field() {
  WaypointParams p;
  p.side = 5.0;
  p.min_speed = 0.1;
  p.max_speed = 0.3;
  p.pause_ticks = 1;
  return p;
}

TEST(RandomWaypoint, Preconditions) {
  EXPECT_THROW(RandomWaypoint(0, small_field(), 1), std::invalid_argument);
  WaypointParams bad_speed = small_field();
  bad_speed.min_speed = 0.0;
  EXPECT_THROW(RandomWaypoint(3, bad_speed, 1), std::invalid_argument);
  WaypointParams inverted = small_field();
  inverted.min_speed = 0.5;
  inverted.max_speed = 0.1;
  EXPECT_THROW(RandomWaypoint(3, inverted, 1), std::invalid_argument);
  WaypointParams bad_side = small_field();
  bad_side.side = 0.0;
  EXPECT_THROW(RandomWaypoint(3, bad_side, 1), std::invalid_argument);
}

TEST(RandomWaypoint, StaysInsideField) {
  RandomWaypoint model(30, small_field(), 7);
  for (int tick = 0; tick < 500; ++tick) {
    model.step();
    for (const auto p : model.positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 5.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 5.0);
    }
  }
  EXPECT_EQ(model.ticks(), 500u);
}

TEST(RandomWaypoint, SpeedIsBounded) {
  RandomWaypoint model(20, small_field(), 9);
  auto prev = model.positions();
  for (int tick = 0; tick < 200; ++tick) {
    model.step();
    const auto& cur = model.positions();
    for (std::size_t i = 0; i < cur.size(); ++i) {
      EXPECT_LE(geom::dist(prev[i], cur[i]), 0.3 + 1e-12) << "node " << i;
    }
    prev = cur;
  }
}

TEST(RandomWaypoint, NodesActuallyMove) {
  RandomWaypoint model(10, small_field(), 11);
  const auto start = model.positions();
  for (int tick = 0; tick < 100; ++tick) model.step();
  double total = 0.0;
  for (std::size_t i = 0; i < start.size(); ++i) {
    total += geom::dist(start[i], model.positions()[i]);
  }
  EXPECT_GT(total, 1.0);  // someone went somewhere
}

TEST(RandomWaypoint, DeterministicPerSeed) {
  RandomWaypoint a(15, small_field(), 42), b(15, small_field(), 42);
  for (int tick = 0; tick < 50; ++tick) {
    a.step();
    b.step();
  }
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(a.positions()[i].x, b.positions()[i].x);
    EXPECT_EQ(a.positions()[i].y, b.positions()[i].y);
  }
}

TEST(DynChurnSchedule, TopologyMatchesBatchBuilderPerEpoch) {
  // Each epoch's topology must be the unit-disk graph at the positions
  // the motion reaches after ticks_per_epoch more ticks: a shadow model
  // stepped in lockstep gives those positions, and the O(n²) naive
  // builder, which shares no code with the schedule's grid build, gives
  // the expected CSR bytes.
  const WaypointParams wp = small_field();
  RandomWaypoint scheduled(18, wp, 21);
  RandomWaypoint shadow(18, wp, 21);
  const auto trace = churn_schedule(scheduled, 1.5, 8, 3, {0.2, 0.3}, 4);
  ASSERT_EQ(trace.size(), 8u);
  for (const ChurnEpoch& epoch : trace) {
    for (int t = 0; t < 3; ++t) shadow.step();
    expect_same_csr(epoch.topology, build_udg_naive(shadow.positions(), 1.5));
    EXPECT_GT(epoch.topology.num_edges(), 0u);
  }
}

TEST(RandomWaypoint, PausesAtWaypoints) {
  // With a huge pause and tiny field, nodes should regularly be exactly
  // stationary for consecutive ticks.
  WaypointParams p = small_field();
  p.pause_ticks = 5;
  p.side = 1.0;
  p.min_speed = 0.4;
  p.max_speed = 0.5;
  RandomWaypoint model(5, p, 3);
  std::size_t stationary = 0;
  auto prev = model.positions();
  for (int tick = 0; tick < 200; ++tick) {
    model.step();
    for (std::size_t i = 0; i < prev.size(); ++i) {
      if (geom::dist(prev[i], model.positions()[i]) == 0.0) ++stationary;
    }
    prev = model.positions();
  }
  EXPECT_GT(stationary, 50u);
}

}  // namespace
}  // namespace mcds::udg
