#include "dist/connector_selection.hpp"

#include <stdexcept>

#include "dist/reliable_link.hpp"
#include "graph/traversal.hpp"

namespace mcds::dist {

namespace {

// Message types.
constexpr std::int32_t kReport = 1;  ///< a = #dominator neighbors
constexpr std::int32_t kElect = 2;   ///< leader -> s
constexpr std::int32_t kIAmS = 3;    ///< s -> neighbors
constexpr std::int32_t kInvite = 4;  ///< dominator -> parent
constexpr std::int32_t kAccept = 5;  ///< connector -> neighbors

class ConnectorProtocol final : public Protocol {
 public:
  // The protocol is round-indexed: reports are in after one delivery
  // window, s's announcement after three. phase_len is that window — 1
  // in the synchronous model, reliable_delivery_bound() under a
  // reliable link. strict holds under a trivial plan, where a leader
  // hearing no reports is a logic error; under a faulty plan the run
  // fizzles instead, leaving s unelected.
  ConnectorProtocol(Transport& rt, NodeId leader,
                    const std::vector<NodeId>& parent,
                    const std::vector<bool>& in_mis, std::size_t phase_len,
                    bool strict)
      : rt_(rt),
        leader_(leader),
        parent_(parent),
        in_mis_(in_mis),
        covered_by_s_(rt.topology().num_nodes(), 0),
        connector_(rt.topology().num_nodes(), 0),
        phase_len_(phase_len),
        strict_(strict) {}

  void start(NodeId self) override {
    // Leader's neighbors report their dominator coverage.
    if (rt_.topology().has_edge(self, leader_)) {
      std::int64_t count = 0;
      for (const NodeId w : rt_.topology().neighbors(self)) {
        if (in_mis_[w]) ++count;
      }
      rt_.send(self, leader_, Message{0, kReport, count, 0});
    }
  }

  void on_round_begin() override { ++round_; }

  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      switch (m.type) {
        case kReport:
          // Leader picks the best reporter (max count, then min id).
          // Only the leader receives reports.
          if (best_ == graph::kNoNode || m.a > best_count_ ||
              (m.a == best_count_ && m.from < best_)) {
            best_ = m.from;
            best_count_ = m.a;
          }
          break;
        case kElect:
          s_ = self;
          connector_[self] = 1;
          rt_.broadcast(self, Message{0, kIAmS, 0, 0});
          break;
        case kIAmS:
          covered_by_s_[self] = 1;
          break;
        case kInvite:
          if (!connector_[self]) {
            connector_[self] = 1;
            rt_.broadcast(self, Message{0, kAccept, 0, 0});
          }
          break;
        case kAccept:
          break;  // informational
        default:
          throw std::logic_error("connector protocol: unknown message");
      }
    }

    // Round phase_len: all reports are in; the leader elects s.
    if (self == leader_ && round_ == phase_len_) {
      if (best_ == graph::kNoNode) {
        if (strict_) {
          throw std::logic_error(
              "connector protocol: leader heard no reports");
        }
      } else {
        rt_.send(self, best_, Message{0, kElect, 0, 0});
      }
    }
    // Round 3 * phase_len: IAmS announcements have been processed above;
    // dominators not covered by s (and not the leader itself) invite
    // their parents.
    if (round_ == 3 * phase_len_ && in_mis_[self] && self != leader_ &&
        !covered_by_s_[self]) {
      if (strict_ || (parent_[self] != graph::kNoNode &&
                      rt_.topology().has_edge(self, parent_[self]))) {
        rt_.send(self, parent_[self], Message{0, kInvite, 0, 0});
      }
    }
  }

  /// Keeps the runtime ticking through the stretched phase gaps; with
  /// phase_len == 1 the synchronous traffic pattern already spans every
  /// round, so the original quiescence rule is preserved exactly.
  [[nodiscard]] bool idle() const override {
    return phase_len_ == 1 || round_ >= 3 * phase_len_;
  }

  [[nodiscard]] NodeId s() const { return s_; }
  [[nodiscard]] const std::vector<std::uint8_t>& connectors() const {
    return connector_;
  }

 private:
  Transport& rt_;
  NodeId leader_;
  const std::vector<NodeId>& parent_;
  const std::vector<bool>& in_mis_;
  // Byte flags, not vector<bool> bits: no masking on the step path.
  std::vector<std::uint8_t> covered_by_s_;
  std::vector<std::uint8_t> connector_;
  NodeId best_ = graph::kNoNode;
  std::int64_t best_count_ = -1;
  NodeId s_ = graph::kNoNode;
  std::size_t round_ = 0;
  std::size_t phase_len_;
  bool strict_;
};

void assemble(const Graph& g, const ConnectorProtocol& protocol,
              const std::vector<bool>& in_mis, ConnectorResult& out) {
  out.s = protocol.s();
  const auto& conn = protocol.connectors();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (conn[v] != 0 && !in_mis[v]) out.connectors.push_back(v);
    if (conn[v] != 0 || in_mis[v]) out.cds.push_back(v);
  }
}

}  // namespace

ConnectorResult select_connectors(const Graph& g, NodeId leader,
                                  const std::vector<NodeId>& parent,
                                  const std::vector<bool>& in_mis,
                                  const RunConfig& cfg,
                                  std::size_t round_offset) {
  if (g.num_nodes() < 2) {
    throw std::invalid_argument("select_connectors: need >= 2 nodes");
  }
  if (parent.size() != g.num_nodes() || in_mis.size() != g.num_nodes()) {
    throw std::invalid_argument("select_connectors: input size mismatch");
  }
  FaultHarness h(g, cfg, round_offset, "connector_selection");
  const std::size_t phase_len =
      cfg.reliable ? reliable_delivery_bound(cfg.link) : 1;
  ConnectorProtocol protocol(h.net(), leader, parent, in_mis, phase_len,
                             /*strict=*/cfg.plan.trivial());
  ConnectorResult out;
  out.stats = h.run(protocol);
  assemble(g, protocol, in_mis, out);
  out.complete = protocol.s() != graph::kNoNode;
  return out;
}

}  // namespace mcds::dist
