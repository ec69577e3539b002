#include "dist/runtime.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace mcds::dist {
namespace {

// Toy protocol: node 0 sends a token that each node forwards to its
// highest-id unvisited neighbor; used to validate delivery and counting.
class TokenPass final : public Protocol {
 public:
  explicit TokenPass(Runtime& rt)
      : rt_(rt), visited_(rt.topology().num_nodes(), false) {}

  void start(NodeId self) override {
    if (self == 0) {
      visited_[0] = true;
      forward(self);
    }
  }

  void step(NodeId self, std::span<const Message> inbox) override {
    if (inbox.empty()) return;
    visited_[self] = true;
    forward(self);
  }

  [[nodiscard]] std::size_t visited_count() const {
    std::size_t c = 0;
    for (const bool v : visited_) c += v ? 1 : 0;
    return c;
  }

 private:
  void forward(NodeId self) {
    for (const NodeId v : rt_.topology().neighbors(self)) {
      if (!visited_[v]) {
        rt_.send(self, v, Message{});
        return;
      }
    }
  }

  Runtime& rt_;
  std::vector<bool> visited_;
};

TEST(Runtime, TokenTraversesPath) {
  const Graph g = test::make_path(6);
  Runtime rt(g);
  TokenPass p(rt);
  const RunStats stats = rt.run(p);
  EXPECT_EQ(p.visited_count(), 6u);
  EXPECT_EQ(stats.messages, 5u);  // one hop per edge of the path
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(Runtime, SendRequiresAdjacency) {
  const Graph g = test::make_path(4);
  Runtime rt(g);
  EXPECT_THROW(rt.send(0, 2, Message{}), std::invalid_argument);
  EXPECT_NO_THROW(rt.send(0, 1, Message{}));
}

TEST(Runtime, BroadcastReachesAllNeighbors) {
  const Graph g = test::make_star(5);
  Runtime rt(g);

  class CountInbox final : public Protocol {
   public:
    explicit CountInbox(Runtime& rt) : rt_(rt), got_(5, 0) {}
    void start(NodeId self) override {
      if (self == 0) rt_.broadcast(0, Message{});
    }
    void step(NodeId self, std::span<const Message> inbox) override {
      got_[self] += inbox.size();
    }
    Runtime& rt_;
    std::vector<std::size_t> got_;
  };

  CountInbox p(rt);
  const RunStats stats = rt.run(p);
  EXPECT_EQ(stats.messages, 4u);
  EXPECT_EQ(stats.rounds, 1u);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(p.got_[leaf], 1u);
  EXPECT_EQ(p.got_[0], 0u);
}

TEST(Runtime, FromFieldStamped) {
  const Graph g = test::make_path(2);
  Runtime rt(g);

  class CheckFrom final : public Protocol {
   public:
    explicit CheckFrom(Runtime& rt) : rt_(rt) {}
    void start(NodeId self) override {
      if (self == 1) rt_.send(1, 0, Message{.from = 99, .type = 5});
    }
    void step(NodeId self, std::span<const Message> inbox) override {
      if (self == 0 && !inbox.empty()) {
        from = inbox[0].from;
        type = inbox[0].type;
      }
    }
    Runtime& rt_;
    NodeId from = 42;
    std::int32_t type = 0;
  };

  CheckFrom p(rt);
  (void)rt.run(p);
  EXPECT_EQ(p.from, 1u);  // runtime overwrites the forged from
  EXPECT_EQ(p.type, 5);
}

TEST(Runtime, RoundLimitGuard) {
  const Graph g = test::make_path(2);
  Runtime rt(g);

  // Ping-pong forever.
  class PingPong final : public Protocol {
   public:
    explicit PingPong(Runtime& rt) : rt_(rt) {}
    void start(NodeId self) override {
      if (self == 0) rt_.send(0, 1, Message{});
    }
    void step(NodeId self, std::span<const Message> inbox) override {
      if (!inbox.empty()) rt_.send(self, self == 0 ? 1 : 0, Message{});
    }
    Runtime& rt_;
  };

  PingPong p(rt);
  EXPECT_THROW((void)rt.run(p, 50), std::runtime_error);
}

TEST(Runtime, QuiescenceWithNoInitialMessages) {
  const Graph g = test::make_path(3);
  Runtime rt(g);

  class Silent final : public Protocol {
   public:
    void start(NodeId) override {}
    void step(NodeId, std::span<const Message>) override {}
  };

  Silent p;
  const RunStats stats = rt.run(p);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.messages, 0u);
}

// A plan whose only entry recovers a node that is already up: nothing
// is injected, but the run is faulty, so the runtime steps every live
// node and routes every copy on its own.
FaultPlan noop_plan() {
  FaultPlan plan;
  plan.schedule.push_back({.round = 1, .node = 0, .up = true});
  return plan;
}

// Logs every step() as (round, node, inbox size) on a star centred at
// 0: the centre writes to leaves 4 then 2, both answer, and the centre
// broadcasts once more. step() on an empty inbox does nothing, so the
// protocol may declare itself mail-driven.
class StepLog final : public Protocol {
 public:
  StepLog(Runtime& rt, bool mail_driven)
      : rt_(rt), mail_driven_(mail_driven) {}
  void start(NodeId self) override {
    if (self != 0) return;
    rt_.send(0, 4, Message{});
    rt_.send(0, 2, Message{});
  }
  void on_round_begin() override { ++round_; }
  void step(NodeId self, std::span<const Message> inbox) override {
    log.emplace_back(round_, self, inbox.size());
    if (inbox.empty()) return;
    if (self == 0) {
      rt_.broadcast(0, Message{});
    } else if (round_ == 1) {
      rt_.send(self, 0, Message{});
    }
  }
  [[nodiscard]] bool mail_driven() const override { return mail_driven_; }

  std::vector<std::tuple<std::size_t, NodeId, std::size_t>> log;

 private:
  Runtime& rt_;
  bool mail_driven_;
  std::size_t round_ = 0;
};

TEST(Runtime, MailDrivenProtocolStepsOnlyNodesWithMailInAscendingId) {
  const Graph g = test::make_star(5);
  Runtime rt(g);
  obs::MetricsRegistry reg;
  rt.observe(obs::Obs{.metrics = &reg}, "log");
  StepLog p(rt, /*mail_driven=*/true);
  const RunStats stats = rt.run(p);
  // Round 1 mail reaches 4 before 2 but steps them in ascending id.
  const std::vector<std::tuple<std::size_t, NodeId, std::size_t>> want{
      {1, 2, 1}, {1, 4, 1}, {2, 0, 2},
      {3, 1, 1}, {3, 2, 1}, {3, 3, 1}, {3, 4, 1}};
  EXPECT_EQ(p.log, want);
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.messages, 8u);
  EXPECT_EQ(reg.counters().at("log.steps").value(), want.size());
}

TEST(Runtime, DefaultProtocolStepsEveryLiveNodeEveryRound) {
  const Graph g = test::make_star(5);
  const auto every_node = [](std::size_t rounds) {
    std::vector<std::pair<std::size_t, NodeId>> out;
    for (std::size_t r = 1; r <= rounds; ++r) {
      for (NodeId v = 0; v < 5; ++v) out.emplace_back(r, v);
    }
    return out;
  };
  const auto stepped = [](const StepLog& p) {
    std::vector<std::pair<std::size_t, NodeId>> out;
    for (const auto& [round, node, size] : p.log) out.emplace_back(round, node);
    return out;
  };
  {
    Runtime rt(g);
    obs::MetricsRegistry reg;
    rt.observe(obs::Obs{.metrics = &reg}, "log");
    StepLog p(rt, /*mail_driven=*/false);
    EXPECT_EQ(rt.run(p).rounds, 3u);
    EXPECT_EQ(stepped(p), every_node(3));
    EXPECT_EQ(reg.counters().at("log.steps").value(), 15u);
  }
  {
    // A faulty run ignores the contract: every live node steps.
    Runtime rt(g, noop_plan());
    StepLog p(rt, /*mail_driven=*/true);
    EXPECT_EQ(rt.run(p).rounds, 3u);
    EXPECT_EQ(stepped(p), every_node(3));
  }
}

// Never quiesces: every node with mail broadcasts (one record) and
// writes to its lowest neighbor (one copy), so queues mix both.
class Broadcaster final : public Protocol {
 public:
  explicit Broadcaster(Runtime& rt) : rt_(rt) {}
  void start(NodeId self) override {
    if (self == 0) rt_.broadcast(0, Message{.type = 1});
  }
  void step(NodeId self, std::span<const Message> inbox) override {
    if (inbox.empty()) return;
    rt_.broadcast(self, Message{.type = 1});
    rt_.send(self, rt_.topology().neighbors(self)[0], Message{.type = 2});
  }
  [[nodiscard]] bool mail_driven() const override { return true; }

 private:
  Runtime& rt_;
};

TEST(Runtime, BroadcastRecordsKeepRoundLimitDiagnostics) {
  const Graph g = test::make_path(10);
  const auto trip = [&](bool faulty) {
    Runtime rt = faulty ? Runtime(g, noop_plan()) : Runtime(g);
    rt.observe(obs::Obs{}, "broadcaster");
    Broadcaster p(rt);
    try {
      (void)rt.run(p, /*max_rounds=*/4);
    } catch (const RoundLimitError& e) {
      return e;
    }
    ADD_FAILURE() << "round guard did not trip";
    return RoundLimitError("", 0, 0, {}, {});
  };
  const RoundLimitError general = trip(/*faulty=*/true);
  EXPECT_EQ(general.rounds_run(), 4u);
  EXPECT_GT(general.in_flight(), 0u);
  EXPECT_FALSE(general.pending_nodes().empty());
  EXPECT_LT(general.pending_nodes().size(), g.num_nodes());
  ASSERT_EQ(general.in_flight_by_type().size(), 2u);
  const RoundLimitError fast = trip(/*faulty=*/false);
  EXPECT_EQ(std::string(fast.what()), std::string(general.what()));
  EXPECT_EQ(fast.in_flight(), general.in_flight());
  EXPECT_EQ(fast.pending_nodes(), general.pending_nodes());
  EXPECT_EQ(fast.in_flight_by_type(), general.in_flight_by_type());
}

}  // namespace
}  // namespace mcds::dist
