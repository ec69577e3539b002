#include "dist/leader_election.hpp"

#include <stdexcept>

#include "dist/reliable_link.hpp"

namespace mcds::dist {

namespace {

class MinIdFlood final : public Protocol {
 public:
  explicit MinIdFlood(Transport& rt)
      : rt_(rt), known_(rt.topology().num_nodes()) {
    for (NodeId v = 0; v < known_.size(); ++v) known_[v] = v;
  }

  void start(NodeId self) override {
    rt_.broadcast(self, Message{0, 0, static_cast<std::int64_t>(self), 0});
  }

  void step(NodeId self, std::span<const Message> inbox) override {
    bool improved = false;
    for (const Message& m : inbox) {
      const auto id = static_cast<NodeId>(m.a);
      if (id < known_[self]) {
        known_[self] = id;
        improved = true;
      }
    }
    if (improved) {
      rt_.broadcast(self,
                    Message{0, 0, static_cast<std::int64_t>(known_[self]), 0});
    }
  }

  /// An empty inbox improves nothing, so nothing is sent.
  [[nodiscard]] bool mail_driven() const override { return true; }

  [[nodiscard]] NodeId known(NodeId v) const { return known_[v]; }

 private:
  Transport& rt_;
  std::vector<NodeId> known_;
};

}  // namespace

LeaderResult elect_leader(const Graph& g, const RunConfig& cfg,
                          std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("elect_leader: empty graph");
  }
  FaultHarness h(g, cfg, round_offset, "leader_election");
  MinIdFlood protocol(h.net());
  LeaderResult out;
  out.stats = h.run(protocol);
  bool first = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!h.runtime().is_up(v)) continue;
    if (first) {
      out.leader = protocol.known(v);
      first = false;
    } else if (protocol.known(v) != out.leader) {
      out.complete = false;
    }
  }
  if (first) out.complete = false;  // nobody survived
  if (!out.complete && cfg.plan.trivial()) {
    throw std::invalid_argument("elect_leader: topology is disconnected");
  }
  return out;
}

}  // namespace mcds::dist
