#include "dist/greedy_protocol.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "dist/bfs_tree.hpp"
#include "dist/leader_election.hpp"
#include "dist/reliable_link.hpp"
#include "graph/traversal.hpp"

namespace mcds::dist {

namespace {

// Small-set insertion: the per-node label/bidder collections are bounded
// by the local component count (≤ 5 adjacent MIS components in a UDG)
// resp. the 2-hop candidate count, so a flat vector with a linear
// membership probe beats the former std::set both in allocation count
// and locality. Returns true if \p x was newly inserted.
bool insert_unique(std::vector<NodeId>& xs, NodeId x) {
  if (std::find(xs.begin(), xs.end(), x) != xs.end()) return false;
  xs.push_back(x);
  return true;
}

// Phase A of an epoch: members agree on component labels (min member id
// in the component) by flooding along member-member edges.
class LabelProtocol final : public Protocol {
 public:
  LabelProtocol(Transport& rt, const std::vector<bool>& member)
      : rt_(rt), member_(member), label_(rt.topology().num_nodes()) {
    for (NodeId v = 0; v < label_.size(); ++v) label_[v] = v;
  }

  void start(NodeId self) override {
    if (!member_[self]) return;
    rt_.broadcast(self, Message{0, 0, static_cast<std::int64_t>(self), 0});
  }

  void step(NodeId self, std::span<const Message> inbox) override {
    if (!member_[self]) return;  // radio noise for non-members
    bool improved = false;
    for (const Message& m : inbox) {
      if (!member_[m.from]) continue;
      const auto lbl = static_cast<NodeId>(m.a);
      if (lbl < label_[self]) {
        label_[self] = lbl;
        improved = true;
      }
    }
    if (improved) {
      rt_.broadcast(self,
                    Message{0, 0, static_cast<std::int64_t>(label_[self]), 0});
    }
  }

  /// An empty inbox lowers no label, so nothing is sent.
  [[nodiscard]] bool mail_driven() const override { return true; }

  [[nodiscard]] const std::vector<NodeId>& labels() const { return label_; }

 private:
  Transport& rt_;
  const std::vector<bool>& member_;
  std::vector<NodeId> label_;
};

// Phase B of an epoch: gain bidding over two hops, round-indexed with a
// configurable delivery window (phase_len = 1 in the synchronous model):
// round 1·pl: labels are in; candidates with gain >= 1 broadcast
//             BID(gain, id);
// rounds in between: every node forwards each distinct bid once (2-hop
//             spread);
// round 3·pl: bidders that heard no better bid join and announce it.
class BidProtocol final : public Protocol {
 public:
  static constexpr std::int32_t kLabel = 1;
  static constexpr std::int32_t kBid = 2;
  static constexpr std::int32_t kJoin = 3;

  BidProtocol(Transport& rt, const std::vector<bool>& member,
              const std::vector<NodeId>& label, std::size_t phase_len)
      : rt_(rt),
        member_(member),
        label_(label),
        adjacent_labels_(rt.topology().num_nodes()),
        best_rival_gain_(rt.topology().num_nodes(), 0),
        best_rival_id_(rt.topology().num_nodes(), graph::kNoNode),
        my_gain_(rt.topology().num_nodes(), 0),
        seen_bidders_(rt.topology().num_nodes()),
        won_(rt.topology().num_nodes(), 0),
        phase_len_(phase_len) {}

  void start(NodeId self) override {
    if (member_[self]) {
      rt_.broadcast(self, Message{0, kLabel,
                                  static_cast<std::int64_t>(label_[self]), 0});
    }
  }

  void on_round_begin() override { ++round_; }

  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      switch (m.type) {
        case kLabel:
          if (!member_[self]) {
            insert_unique(adjacent_labels_[self], static_cast<NodeId>(m.a));
          }
          break;
        case kBid: {
          const auto gain = static_cast<std::size_t>(m.a);
          const auto bidder = static_cast<NodeId>(m.b);
          if (bidder != self && insert_unique(seen_bidders_[self], bidder)) {
            consider_rival(self, gain, bidder);
            // Relay only first-hand bids, so each bid travels exactly
            // two hops — the competition stays local.
            if (m.from == bidder) rt_.broadcast(self, m);
          }
          break;
        }
        case kJoin:
          break;  // membership updates are applied by the orchestrator
        default:
          throw std::logic_error("greedy protocol: unknown message");
      }
    }

    if (round_ == phase_len_ && !member_[self]) {
      // Labels are in; compute the gain and bid if positive.
      const std::size_t distinct = adjacent_labels_[self].size();
      if (distinct >= 2) {
        my_gain_[self] = distinct - 1;
        rt_.broadcast(self,
                      Message{0, kBid,
                              static_cast<std::int64_t>(my_gain_[self]),
                              static_cast<std::int64_t>(self)});
      }
    }
    if (round_ == 3 * phase_len_ && my_gain_[self] >= 1) {
      // All bids within two hops have arrived (first-hand by 2·pl,
      // relayed by 3·pl); decide.
      const bool beaten =
          best_rival_id_[self] != graph::kNoNode &&
          (best_rival_gain_[self] > my_gain_[self] ||
           (best_rival_gain_[self] == my_gain_[self] &&
            best_rival_id_[self] < self));
      if (!beaten) {
        // Per-node byte flag instead of a shared push_back: all wins
        // land in the same round, so the serial winner order was
        // ascending node id anyway — winners() reproduces it exactly.
        won_[self] = 1;
        rt_.broadcast(self, Message{0, kJoin, 0, 0});
      }
    }
  }

  /// Keeps the runtime ticking through the stretched phase gaps; with
  /// phase_len == 1 the synchronous traffic pattern already spans every
  /// round, so the original quiescence rule is preserved exactly.
  [[nodiscard]] bool idle() const override {
    return phase_len_ == 1 || round_ >= 3 * phase_len_;
  }

  [[nodiscard]] std::vector<NodeId> winners() const {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < won_.size(); ++v) {
      if (won_[v] != 0) out.push_back(v);
    }
    return out;
  }

 private:
  void consider_rival(NodeId self, std::size_t gain, NodeId bidder) {
    if (member_[self]) return;
    if (best_rival_id_[self] == graph::kNoNode ||
        gain > best_rival_gain_[self] ||
        (gain == best_rival_gain_[self] && bidder < best_rival_id_[self])) {
      best_rival_gain_[self] = gain;
      best_rival_id_[self] = bidder;
    }
  }

  Transport& rt_;
  const std::vector<bool>& member_;
  const std::vector<NodeId>& label_;
  std::vector<std::vector<NodeId>> adjacent_labels_;
  std::vector<std::size_t> best_rival_gain_;
  std::vector<NodeId> best_rival_id_;
  std::vector<std::size_t> my_gain_;
  std::vector<std::vector<NodeId>> seen_bidders_;
  std::vector<std::uint8_t> won_;  ///< byte per node: joined this epoch
  std::size_t round_ = 0;
  std::size_t phase_len_;
};

}  // namespace

DistGreedyResult distributed_greedy_cds(const Graph& g, const RunConfig& cfg,
                                        std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("distributed_greedy_cds: empty graph");
  }
  DistGreedyResult out;
  if (g.num_nodes() == 1) {
    out.mis.in_mis = {true};
    out.mis.mis = {0};
    out.cds = {0};
    return out;
  }

  // One fault timeline threads through every phase: each runtime starts
  // at the global round where the previous one stopped.
  std::size_t offset = round_offset;
  const LeaderResult leader = elect_leader(g, cfg, offset);
  out.total = leader.stats;
  out.complete = leader.complete;
  offset += leader.stats.rounds;

  const BfsTreeResult tree = build_bfs_tree(g, leader.leader, cfg, offset);
  out.total += tree.stats;
  out.complete = out.complete && tree.complete;
  offset += tree.stats.rounds;

  out.mis = elect_mis(g, tree.level, cfg, offset);
  out.total += out.mis.stats;
  out.complete = out.complete && out.mis.complete;
  offset += out.mis.stats.rounds;

  const std::size_t phase_len =
      cfg.reliable ? reliable_delivery_bound(cfg.link) : 1;
  std::vector<bool> member = out.mis.in_mis;
  // Labels are node ids, so distinct-label counting is a stamped scan
  // over one reusable array instead of a per-epoch std::set.
  std::vector<std::size_t> label_stamp(g.num_nodes(), 0);
  // q drops each fault-free epoch; the cap also bounds faulty runs.
  const std::size_t max_epochs = std::max<std::size_t>(out.mis.mis.size(), 1);
  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    // Phase A: component labels.
    FaultHarness label_h(g, cfg, offset, "greedy_label");
    LabelProtocol labels(label_h.net(), member);
    const RunStats label_stats = label_h.run(labels);
    out.total += label_stats;
    offset += label_stats.rounds;
    std::size_t distinct = 0;
    const std::size_t stamp = epoch + 1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!member[v]) continue;
      const NodeId lbl = labels.labels()[v];
      if (label_stamp[lbl] != stamp) {
        label_stamp[lbl] = stamp;
        ++distinct;
      }
    }
    if (distinct <= 1) break;

    // Phase B: bidding.
    ++out.epochs;
    FaultHarness bid_h(g, cfg, offset, "greedy_bid");
    BidProtocol bids(bid_h.net(), member, labels.labels(), phase_len);
    const RunStats bid_stats = bid_h.run(bids);
    out.total += bid_stats;
    offset += bid_stats.rounds;
    const std::vector<NodeId> winners = bids.winners();
    if (winners.empty()) {
      // Lemma 9 guarantees a winner when every bid is delivered, so a
      // dry epoch under a trivial plan is a logic error. With losses the
      // epoch can come up dry; the component count cannot increase, so
      // stopping here is safe — the caller repairs what is missing.
      if (cfg.plan.trivial()) {
        throw std::logic_error(
            "distributed_greedy_cds: no winner although q > 1 (Lemma 9 "
            "guarantees the global maximum bidder wins)");
      }
      out.complete = false;
      break;
    }
    for (const NodeId w : winners) {
      member[w] = true;
      out.connectors.push_back(w);
    }
  }

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (member[v]) out.cds.push_back(v);
  }
  std::sort(out.connectors.begin(), out.connectors.end());
  return out;
}

}  // namespace mcds::dist
