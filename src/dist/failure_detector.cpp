#include "dist/failure_detector.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcds::dist {

namespace {

/// Index of \p w in \p v's (sorted) adjacency, or SIZE_MAX.
std::size_t neighbor_index(const Graph& g, NodeId v, NodeId w) {
  const auto nbrs = g.neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return SIZE_MAX;
  return static_cast<std::size_t>(it - nbrs.begin());
}

}  // namespace

FailureDetector::FailureDetector(Transport& net,
                                 const FailureDetectorParams& params,
                                 const obs::Obs& obs)
    : net_(net), params_(params) {
  if (params_.heartbeat_every == 0) {
    throw std::invalid_argument(
        "FailureDetector: heartbeat_every must be >= 1");
  }
  if (params_.window == 0) {
    throw std::invalid_argument("FailureDetector: window must be >= 1");
  }
  if (!(params_.threshold > 0.0)) {
    throw std::invalid_argument("FailureDetector: threshold must be > 0");
  }
  const Graph& g = net_.topology();
  st_.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    st_[v].resize(g.degree(v));
  }
  c_heartbeats_ = obs.counter("failure_detector.heartbeats");
  c_dedup_ = obs.counter("failure_detector.dedup");
  c_suspicions_ = obs.counter("failure_detector.suspicions");
  c_recoveries_ = obs.counter("failure_detector.recoveries");
}

void FailureDetector::start(NodeId self) {
  net_.broadcast(self, Message{0, kHeartbeatType, 0, 0});
  if (c_heartbeats_) c_heartbeats_->add(net_.topology().degree(self));
}

void FailureDetector::on_round_begin() {
  ++round_;
  // Suspicion accrues only inside the observation horizon: heartbeats
  // stop at params_.rounds, so the drain rounds a link layer needs to
  // flush its last acks must not read as everyone going silent.
  if (round_ <= params_.rounds) sweep_suspicions();
}

void FailureDetector::step(NodeId self, std::span<const Message> inbox) {
  for (const Message& m : inbox) {
    if (m.type != kHeartbeatType) continue;
    const std::size_t i = neighbor_index(net_.topology(), self, m.from);
    if (i == SIZE_MAX) continue;
    Edge& e = st_[self][i];
    // Any frame proves liveness, even a stale retransmitted copy that
    // ReliableLink's backoff held for several rounds.
    e.last_seen = round_;
    if (e.suspected) {
      e.suspected = false;
      if (c_recoveries_) c_recoveries_->add(1);
    }
    if (m.a <= e.last_payload) {
      ++dedup_hits_;
      if (c_dedup_) c_dedup_->add(1);
      continue;
    }
    // Fresh heartbeat: fold the arrival gap into the sliding window the
    // suspicion level is normalized by.
    const std::size_t gap = round_ - e.last_fresh;
    if (e.gaps.size() < params_.window) {
      e.gaps.push_back(gap);
      e.gap_sum += gap;
      ++e.gap_count;
    } else {
      e.gap_sum -= e.gaps[e.ring_idx];
      e.gaps[e.ring_idx] = gap;
      e.gap_sum += gap;
      e.ring_idx = (e.ring_idx + 1) % params_.window;
    }
    e.last_fresh = round_;
    e.last_payload = m.a;
  }
  if (round_ < params_.rounds && round_ % params_.heartbeat_every == 0) {
    net_.broadcast(self, Message{0, kHeartbeatType,
                                 static_cast<std::int64_t>(round_), 0});
    if (c_heartbeats_) c_heartbeats_->add(net_.topology().degree(self));
  }
}

double FailureDetector::phi_of(const Edge& e) const {
  const double mean =
      e.gap_count > 0
          ? static_cast<double>(e.gap_sum) / static_cast<double>(e.gap_count)
          : static_cast<double>(params_.heartbeat_every);
  const auto elapsed = static_cast<double>(round_ - e.last_seen);
  return elapsed / std::max(mean, 1.0);
}

void FailureDetector::sweep_suspicions() {
  for (auto& edges : st_) {
    for (Edge& e : edges) {
      if (!e.suspected && phi_of(e) >= params_.threshold) {
        e.suspected = true;
        if (c_suspicions_) c_suspicions_->add(1);
      }
    }
  }
  if (!track_) return;
  // Convergence is "matches the truth from here on", not "matched
  // once": a transient all-clear before the fault even fires must not
  // latch, so a later mismatch resets the mark.
  bool matches = true;
  const Graph& g = net_.topology();
  for (NodeId v = 0; matches && v < g.num_nodes(); ++v) {
    if (!up_truth_[v]) continue;
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId w = nbrs[i];
      const bool unreachable =
          !up_truth_[w] || group_truth_[v] != group_truth_[w];
      if (st_[v][i].suspected != unreachable) {
        matches = false;
        break;
      }
    }
  }
  if (!matches) {
    converged_round_.reset();
  } else if (!converged_round_.has_value()) {
    converged_round_ = round_;
  }
}

std::vector<NodeId> FailureDetector::suspects_of(NodeId observer) const {
  std::vector<NodeId> out;
  const auto nbrs = net_.topology().neighbors(observer);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (st_[observer][i].suspected) out.push_back(nbrs[i]);
  }
  return out;  // adjacency is sorted, so this is ascending already
}

double FailureDetector::phi(NodeId observer, NodeId w) const {
  const std::size_t i = neighbor_index(net_.topology(), observer, w);
  if (i == SIZE_MAX) return 0.0;
  return phi_of(st_[observer][i]);
}

void FailureDetector::track_convergence(std::vector<bool> up_truth,
                                        std::vector<std::uint32_t> group_truth) {
  const std::size_t n = net_.topology().num_nodes();
  if (up_truth.size() != n || group_truth.size() != n) {
    throw std::invalid_argument(
        "FailureDetector::track_convergence: truth vectors must have one "
        "entry per node");
  }
  up_truth_ = std::move(up_truth);
  group_truth_ = std::move(group_truth);
  track_ = true;
}

FailureDetectorResult detect_failures(const Graph& g, const RunConfig& cfg,
                                      const FailureDetectorParams& params,
                                      std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("detect_failures: empty graph");
  }
  FaultHarness h(g, cfg, round_offset, "failure_detector");
  FailureDetector d(h.net(), params, cfg.obs);
  FailureDetectorResult out;
  out.stats = h.run(d);
  out.suspects.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.suspects[v] = d.suspects_of(v);
  }
  return out;
}

FailureDetectorResult detect_failures(const Graph& g, const RunConfig& cfg,
                                      const FailureDetectorParams& params,
                                      std::vector<bool> up_truth,
                                      std::vector<std::uint32_t> group_truth,
                                      std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("detect_failures: empty graph");
  }
  FaultHarness h(g, cfg, round_offset, "failure_detector");
  FailureDetector d(h.net(), params, cfg.obs);
  d.track_convergence(std::move(up_truth), std::move(group_truth));
  FailureDetectorResult out;
  out.stats = h.run(d);
  out.suspects.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.suspects[v] = d.suspects_of(v);
  }
  out.converged_round = d.converged_round();
  return out;
}

}  // namespace mcds::dist
