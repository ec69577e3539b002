#include "dist/alzoubi_protocol.hpp"

#include <stdexcept>
#include <unordered_set>

#include "dist/reliable_link.hpp"
#include "graph/traversal.hpp"

namespace mcds::dist {

namespace {

// Message types. PROBE carries its remaining ttl in `type` so relays
// can decrement it without extra fields; JOIN walks the relay path
// backwards.
constexpr std::int32_t kProbeBase = 10;  ///< type = kProbeBase + ttl
constexpr std::int32_t kJoin = 2;

constexpr std::uint32_t kNoRelay = 0xFFFFFFFFu;

std::int64_t pack_relays(std::uint32_t r1, std::uint32_t r2) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(r1) << 32) | r2);
}

std::pair<std::uint32_t, std::uint32_t> unpack_relays(std::int64_t b) {
  const auto ub = static_cast<std::uint64_t>(b);
  return {static_cast<std::uint32_t>(ub >> 32),
          static_cast<std::uint32_t>(ub & 0xFFFFFFFFu)};
}

class ConnectProtocol final : public Protocol {
 public:
  ConnectProtocol(Transport& rt, const std::vector<bool>& in_mis)
      : rt_(rt),
        in_mis_(in_mis),
        connector_(rt.topology().num_nodes(), 0),
        handled_(rt.topology().num_nodes()),
        forwarded_(rt.topology().num_nodes()) {}

  void start(NodeId self) override {
    if (!in_mis_[self]) return;
    // PROBE(origin = self, ttl = 2 after the first hop consumes one).
    rt_.broadcast(self, Message{0, kProbeBase + 2,
                                static_cast<std::int64_t>(self),
                                pack_relays(kNoRelay, kNoRelay)});
  }

  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (m.type >= kProbeBase) {
        on_probe(self, m);
      } else if (m.type == kJoin) {
        on_join(self, m);
      } else {
        throw std::logic_error("alzoubi protocol: unknown message");
      }
    }
  }

  /// Probes and joins are handled as they arrive; nothing is timed.
  [[nodiscard]] bool mail_driven() const override { return true; }

  [[nodiscard]] const std::vector<std::uint8_t>& connectors() const {
    return connector_;
  }

 private:
  void on_probe(NodeId self, const Message& m) {
    const auto origin = static_cast<NodeId>(m.a);
    if (origin == self) return;
    const int ttl = m.type - kProbeBase;
    if (in_mis_[self]) {
      // Dominator heard a dominator: act once per smaller-id origin.
      if (origin < self && handled_[self].insert(origin).second) {
        const auto [r1, r2] = unpack_relays(m.b);
        (void)r1;
        if (r2 != kNoRelay) {
          // Path origin -> (r1?) -> r2 -> self: recruit backwards.
          rt_.send(self, static_cast<NodeId>(r2), m2_join(m.b));
        }
        // Direct adjacency (no relays) needs no connectors.
      }
      return;  // dominators do not forward probes
    }
    if (ttl <= 0) return;
    // Scoped-flooding dedup: forward each origin's probe once (the
    // first copy travels a shortest path, so coverage within the ttl
    // radius is preserved and messages stay O(m) per origin).
    if (!forwarded_[self].insert(origin).second) return;
    // Forward with self appended to the relay path.
    const auto [r1, r2] = unpack_relays(m.b);
    (void)r1;
    std::int64_t relays;
    if (r2 == kNoRelay) {
      relays = pack_relays(kNoRelay, self);  // first relay
    } else {
      relays = pack_relays(r2, self);  // shift: keep last two relays
    }
    rt_.broadcast(self, Message{0, kProbeBase + (ttl - 1), m.a, relays});
  }

  static Message m2_join(std::int64_t relays) {
    return Message{0, kJoin, 0, relays};
  }

  void on_join(NodeId self, const Message& m) {
    connector_[self] = 1;
    const auto [r1, r2] = unpack_relays(m.b);
    // self == r2; pass the join on to r1 if the path had two relays.
    if (r2 == self && r1 != kNoRelay && r1 != self) {
      rt_.send(self, static_cast<NodeId>(r1),
               Message{0, kJoin, 0, pack_relays(kNoRelay, r1)});
    }
  }

  Transport& rt_;
  const std::vector<bool>& in_mis_;
  // Byte flags, not vector<bool> bits: no masking on the step path.
  std::vector<std::uint8_t> connector_;
  std::vector<std::unordered_set<NodeId>> handled_;
  std::vector<std::unordered_set<NodeId>> forwarded_;
};

void assemble(const Graph& g, const std::vector<std::uint8_t>& conn,
              AlzoubiResult& out) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (conn[v] != 0 && !out.mis.in_mis[v]) out.connectors.push_back(v);
    if (conn[v] != 0 || out.mis.in_mis[v]) out.cds.push_back(v);
  }
  out.total = out.mis_stats;
  out.total += out.connect_stats;
}

}  // namespace

AlzoubiResult distributed_alzoubi_cds(const Graph& g, const RunConfig& cfg,
                                      std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("distributed_alzoubi_cds: empty graph");
  }
  AlzoubiResult out;
  if (g.num_nodes() == 1) {
    out.mis.in_mis = {true};
    out.mis.mis = {0};
    out.cds = {0};
    return out;
  }
  if (!graph::is_connected(g)) {
    throw std::invalid_argument(
        "distributed_alzoubi_cds: graph must be connected");
  }

  // Phase 1: id-rank MIS on the shared fault timeline.
  const std::vector<NodeId> flat_levels(g.num_nodes(), 0);
  out.mis = elect_mis(g, flat_levels, cfg, round_offset);
  out.mis_stats = out.mis.stats;
  out.complete = out.mis.complete;

  // Phase 2 picks the timeline up where phase 1 stopped.
  FaultHarness h(g, cfg, round_offset + out.mis_stats.rounds, "alzoubi_connect");
  ConnectProtocol protocol(h.net(), out.mis.in_mis);
  out.connect_stats = h.run(protocol);

  assemble(g, protocol.connectors(), out);
  return out;
}

}  // namespace mcds::dist
