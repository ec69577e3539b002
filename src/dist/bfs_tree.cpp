#include "dist/bfs_tree.hpp"

#include <stdexcept>

#include "dist/reliable_link.hpp"

namespace mcds::dist {

namespace {

class BfsProtocol final : public Protocol {
 public:
  BfsProtocol(Transport& rt, NodeId root)
      : rt_(rt),
        root_(root),
        parent_(rt.topology().num_nodes(), graph::kNoNode),
        level_(rt.topology().num_nodes(), graph::kNoNode) {}

  void start(NodeId self) override {
    if (self == root_) {
      level_[self] = 0;
      rt_.broadcast(self, Message{0, 0, 0, 0});  // a = my level
    }
  }

  void step(NodeId self, std::span<const Message> inbox) override {
    if (level_[self] != graph::kNoNode || inbox.empty()) return;
    // All offers in one round carry the same level (synchronous BFS);
    // adopt the smallest-id offeror as parent.
    NodeId best_parent = graph::kNoNode;
    std::int64_t offer_level = 0;
    for (const Message& m : inbox) {
      if (best_parent == graph::kNoNode || m.from < best_parent) {
        best_parent = m.from;
        offer_level = m.a;
      }
    }
    parent_[self] = best_parent;
    level_[self] = static_cast<NodeId>(offer_level + 1);
    rt_.broadcast(self,
                  Message{0, 0, static_cast<std::int64_t>(level_[self]), 0});
  }

  /// A node adopts a level only from an offer in its inbox.
  [[nodiscard]] bool mail_driven() const override { return true; }

  [[nodiscard]] std::vector<NodeId> parents() const { return parent_; }
  [[nodiscard]] std::vector<NodeId> levels() const { return level_; }

 private:
  Transport& rt_;
  NodeId root_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> level_;
};

}  // namespace

BfsTreeResult build_bfs_tree(const Graph& g, NodeId root, const RunConfig& cfg,
                             std::size_t round_offset) {
  if (root >= g.num_nodes()) {
    throw std::invalid_argument("build_bfs_tree: root out of range");
  }
  FaultHarness h(g, cfg, round_offset, "bfs_tree");
  BfsProtocol protocol(h.net(), root);
  BfsTreeResult out;
  out.root = root;
  out.stats = h.run(protocol);
  out.parent = protocol.parents();
  out.level = protocol.levels();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (out.level[v] == graph::kNoNode && h.runtime().is_up(v)) {
      out.complete = false;
    }
  }
  if (!out.complete && cfg.plan.trivial()) {
    throw std::invalid_argument("build_bfs_tree: topology is disconnected");
  }
  return out;
}

}  // namespace mcds::dist
