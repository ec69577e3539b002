#include "dist/mis_election.hpp"

#include <stdexcept>

#include "dist/reliable_link.hpp"

namespace mcds::dist {

namespace {

// Message type: a == 1 if the sender joined the MIS, 0 otherwise.
class MisProtocol final : public Protocol {
 public:
  MisProtocol(Transport& rt, const std::vector<NodeId>& level)
      : rt_(rt), level_(level) {
    const Graph& g = rt.topology();
    const std::size_t n = g.num_nodes();
    undecided_lower_.assign(n, 0);
    decided_.assign(n, 0);
    in_mis_.assign(n, 0);
    blocked_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId u : g.neighbors(v)) {
        if (rank_less(u, v)) ++undecided_lower_[v];
      }
    }
  }

  void start(NodeId self) override { try_decide(self); }

  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (rank_less(m.from, self)) {
        --undecided_lower_[self];
        if (m.a == 1) blocked_[self] = 1;
      }
    }
    try_decide(self);
  }

  /// try_decide() already ran in start(); without new decisions from
  /// lower-ranked neighbors its inputs are unchanged.
  [[nodiscard]] bool mail_driven() const override { return true; }

  [[nodiscard]] std::vector<bool> in_mis() const {
    return {in_mis_.begin(), in_mis_.end()};
  }
  [[nodiscard]] bool decided(NodeId v) const { return decided_[v] != 0; }

 private:
  [[nodiscard]] bool rank_less(NodeId a, NodeId b) const {
    return level_[a] < level_[b] || (level_[a] == level_[b] && a < b);
  }

  void try_decide(NodeId self) {
    if (decided_[self]) return;
    // Early out: a lower-ranked dominator neighbor settles it.
    // Completion: all lower-ranked neighbors decided (all dominatees).
    if (blocked_[self]) {
      decided_[self] = 1;
      in_mis_[self] = 0;
    } else if (undecided_lower_[self] == 0) {
      decided_[self] = 1;
      in_mis_[self] = 1;
    } else {
      return;
    }
    rt_.broadcast(self, Message{0, 0, in_mis_[self] != 0 ? 1 : 0, 0});
  }

  Transport& rt_;
  const std::vector<NodeId>& level_;
  std::vector<std::size_t> undecided_lower_;
  // std::uint8_t, not vector<bool>: one byte per node flag, read and
  // written without bit masking.
  std::vector<std::uint8_t> decided_;
  std::vector<std::uint8_t> in_mis_;
  std::vector<std::uint8_t> blocked_;
};

}  // namespace

MisElectionResult elect_mis(const Graph& g, const std::vector<NodeId>& level,
                            const RunConfig& cfg, std::size_t round_offset) {
  if (level.size() != g.num_nodes()) {
    throw std::invalid_argument("elect_mis: level size mismatch");
  }
  FaultHarness h(g, cfg, round_offset, "mis_election");
  MisProtocol protocol(h.net(), level);
  MisElectionResult out;
  out.stats = h.run(protocol);
  out.in_mis = protocol.in_mis();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (out.in_mis[v]) out.mis.push_back(v);
    if (!protocol.decided(v) && h.runtime().is_up(v)) out.complete = false;
  }
  if (!out.complete && cfg.plan.trivial()) {
    throw std::logic_error("elect_mis: protocol quiesced undecided");
  }
  return out;
}

}  // namespace mcds::dist
