#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"

/// \file mobility.hpp
/// Random-waypoint mobility — the standard MANET evaluation model. Each
/// node picks a uniform destination in the field and a uniform speed,
/// travels there in straight-line steps, pauses, and repeats. Drives
/// the maintenance experiments (E18) and the topology_maintenance
/// example with realistic correlated motion (unlike i.i.d. jitter,
/// waypoint motion has momentum, so topologies change smoothly).

namespace mcds::udg {

/// Parameters of the random-waypoint process.
struct WaypointParams {
  double side = 10.0;       ///< square field [0, side]^2
  double min_speed = 0.05;  ///< per-tick distance lower bound (> 0)
  double max_speed = 0.5;   ///< per-tick distance upper bound
  std::size_t pause_ticks = 2;  ///< dwell time at each waypoint
};

/// The mobility process over a fixed set of nodes.
class RandomWaypoint {
 public:
  /// Starts every node at a uniform position with a fresh waypoint.
  /// Preconditions: nodes >= 1, 0 < min_speed <= max_speed, side > 0.
  RandomWaypoint(std::size_t nodes, const WaypointParams& params,
                 std::uint64_t seed);

  /// Advances every node by one tick (move toward its waypoint by its
  /// speed; on arrival, pause then redraw waypoint and speed).
  void step();

  /// Current node positions.
  [[nodiscard]] const std::vector<geom::Vec2>& positions() const noexcept {
    return positions_;
  }

  /// Number of ticks executed so far.
  [[nodiscard]] std::size_t ticks() const noexcept { return ticks_; }

 private:
  struct NodeState {
    geom::Vec2 target;
    double speed = 0.0;
    std::size_t pause_left = 0;
  };

  void redraw(std::size_t i);

  WaypointParams params_;
  sim::Rng rng_;
  std::vector<geom::Vec2> positions_;
  std::vector<NodeState> state_;
  std::size_t ticks_ = 0;
};

/// One epoch of a churn trace: the unit-disk topology over *all* nodes
/// at the epoch's positions, plus which nodes are alive after the
/// epoch's crashes and recoveries. Mobility moves everyone (a crashed
/// radio still rides its vehicle); consumers induce the survivor graph
/// from `up` as needed.
struct ChurnEpoch {
  graph::Graph topology;
  std::vector<bool> up;
};

/// Parameters of the fail-stop churn process layered over mobility.
struct ChurnParams {
  double crash_prob = 0.1;    ///< per-epoch chance a live node crashes
  double recover_prob = 0.3;  ///< per-epoch chance a crashed node returns
};

/// Drives \p motion for \p epochs × \p ticks_per_epoch ticks and, after
/// each epoch's motion, crash/recovers nodes independently per \p churn,
/// seeded by \p seed (deterministic, independent of the motion's own
/// stream). Each epoch carries the full topology (build_udg at the
/// epoch's positions) and the liveness vector. Epoch e's liveness
/// evolves from epoch e-1's; all nodes start alive.
[[nodiscard]] std::vector<ChurnEpoch> churn_schedule(
    RandomWaypoint& motion, double radius, std::size_t epochs,
    std::size_t ticks_per_epoch, const ChurnParams& churn, std::uint64_t seed);

}  // namespace mcds::udg
