#include "udg/mobility.hpp"

#include <stdexcept>

#include "udg/builder.hpp"

namespace mcds::udg {

using geom::Vec2;

RandomWaypoint::RandomWaypoint(std::size_t nodes,
                               const WaypointParams& params,
                               std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (nodes == 0) {
    throw std::invalid_argument("RandomWaypoint: need >= 1 node");
  }
  if (!(params_.side > 0.0)) {
    throw std::invalid_argument("RandomWaypoint: side must be positive");
  }
  if (!(params_.min_speed > 0.0) || params_.min_speed > params_.max_speed) {
    throw std::invalid_argument(
        "RandomWaypoint: need 0 < min_speed <= max_speed");
  }
  positions_.reserve(nodes);
  state_.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    positions_.push_back(
        {rng_.uniform(0.0, params_.side), rng_.uniform(0.0, params_.side)});
    redraw(i);
  }
}

void RandomWaypoint::redraw(std::size_t i) {
  state_[i].target = {rng_.uniform(0.0, params_.side),
                      rng_.uniform(0.0, params_.side)};
  state_[i].speed = rng_.uniform(params_.min_speed, params_.max_speed);
  state_[i].pause_left = 0;
}

void RandomWaypoint::step() {
  ++ticks_;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    NodeState& s = state_[i];
    if (s.pause_left > 0) {
      --s.pause_left;
      if (s.pause_left == 0) redraw(i);
      continue;
    }
    const Vec2 to_target = s.target - positions_[i];
    const double remaining = to_target.norm();
    if (remaining <= s.speed) {
      positions_[i] = s.target;  // arrived; dwell before the next leg
      s.pause_left = params_.pause_ticks;
      if (s.pause_left == 0) redraw(i);
      continue;
    }
    positions_[i] += to_target * (s.speed / remaining);
  }
}

std::vector<ChurnEpoch> churn_schedule(RandomWaypoint& motion, double radius,
                                       std::size_t epochs,
                                       std::size_t ticks_per_epoch,
                                       const ChurnParams& churn,
                                       std::uint64_t seed) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("churn_schedule: radius must be positive");
  }
  if (!(churn.crash_prob >= 0.0 && churn.crash_prob <= 1.0) ||
      !(churn.recover_prob >= 0.0 && churn.recover_prob <= 1.0)) {
    throw std::invalid_argument(
        "churn_schedule: probabilities must be in [0, 1]");
  }
  sim::Rng rng(seed);
  std::vector<ChurnEpoch> out;
  out.reserve(epochs);
  std::vector<bool> up(motion.positions().size(), true);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t t = 0; t < ticks_per_epoch; ++t) motion.step();
    ChurnEpoch epoch;
    epoch.topology = build_udg(motion.positions(), radius);
    for (std::size_t i = 0; i < up.size(); ++i) {
      const double p = up[i] ? churn.crash_prob : churn.recover_prob;
      // One draw per node per epoch, flipped or not — keeps the trace a
      // pure function of (motion state, seed).
      const bool flip = rng.uniform01() < p;
      if (flip) up[i] = !up[i];
    }
    epoch.up = up;
    out.push_back(std::move(epoch));
  }
  return out;
}

}  // namespace mcds::udg
