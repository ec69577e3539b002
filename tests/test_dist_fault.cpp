#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "dist/alzoubi_protocol.hpp"
#include "dist/bfs_tree.hpp"
#include "dist/distributed_cds.hpp"
#include "dist/fault.hpp"
#include "dist/greedy_protocol.hpp"
#include "dist/leader_election.hpp"
#include "dist/mis_election.hpp"
#include "dist/reliable_link.hpp"
#include "dist/runtime.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::graph::Graph;
using mcds::graph::NodeId;
using namespace mcds::dist;

// Floods a token from node 0; every node rebroadcasts the first copy it
// hears. Event-driven, so it exercises the runtime without depending on
// any protocol under test.
class FloodProbe final : public Protocol {
 public:
  explicit FloodProbe(Transport& net)
      : net_(net), seen_(net.topology().num_nodes(), false) {}

  void start(NodeId self) override {
    if (self == 0) {
      seen_[0] = true;
      net_.broadcast(0, Message{0, 1, 7, 0});
    }
  }
  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (!seen_[self]) {
        seen_[self] = true;
        net_.broadcast(self, Message{0, 1, m.a, 0});
      }
    }
  }

  [[nodiscard]] const std::vector<bool>& seen() const { return seen_; }

 private:
  Transport& net_;
  std::vector<bool> seen_;
};

// Node 0 unicasts to node 1 once per round until `limit` rounds have
// passed; idle() holds the runtime open through the quiet stretch, which
// is how crash/recovery windows get exercised.
class Ticker final : public Protocol {
 public:
  Ticker(Transport& net, std::size_t limit) : net_(net), limit_(limit) {}

  void start(NodeId self) override {
    if (self == 0) net_.send(0, 1, Message{0, 1, 0, 0});
  }
  void on_round_begin() override { ++round_; }
  void step(NodeId self, std::span<const Message> inbox) override {
    if (self == 1) received_ += inbox.size();
    if (self == 0 && round_ < limit_) {
      net_.send(0, 1, Message{0, 1, static_cast<std::int64_t>(round_), 0});
    }
  }
  [[nodiscard]] bool idle() const override { return round_ >= limit_; }

  [[nodiscard]] std::size_t received() const { return received_; }

 private:
  Transport& net_;
  std::size_t limit_;
  std::size_t round_ = 0;
  std::size_t received_ = 0;
};

// Two nodes bouncing one message forever — the livelock the round guard
// exists to catch.
class PingPong final : public Protocol {
 public:
  explicit PingPong(Transport& net) : net_(net) {}
  void start(NodeId self) override {
    if (self == 0) net_.send(0, 1, Message{});
  }
  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) net_.send(self, m.from, Message{});
  }

 private:
  Transport& net_;
};

void expect_stats_eq(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
}

Graph chaos_udg(std::uint64_t seed) {
  mcds::udg::InstanceParams params;
  params.nodes = 40;
  params.side = 6.0;
  params.radius = 1.6;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value());
  return inst->graph;
}

TEST(FaultPlan, UpAfterReplaysScheduleInOrder) {
  FaultPlan plan;
  plan.schedule.push_back({3, 1, false});
  plan.schedule.push_back({5, 1, true});
  plan.schedule.push_back({1, 2, false});

  auto up0 = plan.up_after(4, 0);
  EXPECT_TRUE(up0[1]);
  EXPECT_TRUE(up0[2]);

  auto up3 = plan.up_after(4, 3);
  EXPECT_FALSE(up3[1]);
  EXPECT_FALSE(up3[2]);

  auto up_final = plan.up_after(4, SIZE_MAX);
  EXPECT_TRUE(up_final[0]);
  EXPECT_TRUE(up_final[1]);  // recovered at round 5
  EXPECT_FALSE(up_final[2]);
  EXPECT_TRUE(up_final[3]);
}

TEST(FaultPlan, UpAfterSameRoundEventsApplyInScheduleOrder) {
  FaultPlan plan;
  plan.schedule.push_back({2, 0, false});
  plan.schedule.push_back({2, 0, true});  // later entry wins at round 2
  EXPECT_TRUE(plan.up_after(1, 2)[0]);
}

TEST(FaultPlan, InvalidRatesThrow) {
  const Graph g = mcds::test::make_path(3);
  {
    FaultPlan plan;
    plan.link.drop = 1.5;
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link.duplicate = -0.1;
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.overrides.push_back({0, 1, {2.0, 0.0, 0}});
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
}

TEST(FaultPlan, TrivialDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.trivial());
  plan.seed = 99;  // seed alone injects nothing
  EXPECT_TRUE(plan.trivial());
  plan.link.max_delay = 1;
  EXPECT_FALSE(plan.trivial());
}

TEST(ChannelModel, SameSeedSameFates) {
  FaultPlan plan;
  plan.link = {0.3, 0.2, 2};
  plan.seed = 42;
  ChannelModel a(plan, 0);
  ChannelModel b(plan, 0);
  std::vector<std::size_t> da;
  std::vector<std::size_t> db;
  for (int i = 0; i < 200; ++i) {
    a.sample(0, 1, da);
    b.sample(0, 1, db);
  }
  EXPECT_EQ(da, db);

  // A different stream decorrelates the sequence.
  ChannelModel c(plan, 17);
  std::vector<std::size_t> dc;
  for (int i = 0; i < 200; ++i) c.sample(0, 1, dc);
  EXPECT_NE(da, dc);
}

// The default plan is the ideal model: a run under it counts no fault of
// any kind.
TEST(ZeroFaultPath, DefaultPlanInjectsNoFaults) {
  for (const Graph& g :
       {mcds::test::make_grid(4, 4), mcds::test::make_star(6), chaos_udg(5)}) {
    std::vector<TraceEvent> trace;
    Runtime rt(g);
    rt.record_trace(&trace);
    FloodProbe p(rt);
    const RunStats stats = rt.run(p);

    EXPECT_EQ(trace.size(), stats.messages);
    EXPECT_EQ(stats.messages, 2 * g.num_edges());  // one copy each way
    EXPECT_EQ(rt.faults().dropped, 0u);
    EXPECT_EQ(rt.faults().duplicated, 0u);
    EXPECT_EQ(rt.faults().delayed, 0u);
    EXPECT_EQ(rt.faults().crash_discarded, 0u);
    EXPECT_EQ(rt.faults().suppressed, 0u);
    EXPECT_EQ(rt.faults().partition_dropped, 0u);
  }
}

// Each construction has one entry point, and the plan alone decides what
// a precondition violation does: under a trivial plan (the ideal model,
// with or without the reliable link) a disconnected topology throws;
// under a faulty plan the same call reports complete == false. The
// faulty plan here recovers a node that is already up, so it injects
// nothing and the difference is the rule alone.
TEST(EntryPoint, TrivialPlanThrowsFaultyPlanReportsIncomplete) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Graph g = chaos_udg(seed);
    const std::vector<NodeId> flat(g.num_nodes(), 0);
    EXPECT_TRUE(elect_leader(g).complete) << seed;
    EXPECT_TRUE(elect_mis(g, flat).complete) << seed;
    EXPECT_TRUE(distributed_waf_cds(g).complete) << seed;
    EXPECT_TRUE(distributed_alzoubi_cds(g).complete) << seed;
    EXPECT_TRUE(distributed_greedy_cds(g).complete) << seed;
  }

  const Graph split = mcds::test::make_graph(6, {{0, 1}, {1, 2}, {3, 4},
                                                 {4, 5}});
  for (const bool reliable : {false, true}) {
    RunConfig cfg;
    cfg.reliable = reliable;
    EXPECT_THROW((void)elect_leader(split, cfg), std::invalid_argument)
        << "reliable=" << reliable;
    EXPECT_THROW((void)build_bfs_tree(split, 0, cfg), std::invalid_argument)
        << "reliable=" << reliable;
    EXPECT_THROW((void)distributed_waf_cds(split, cfg), std::invalid_argument)
        << "reliable=" << reliable;
    EXPECT_THROW((void)distributed_greedy_cds(split, cfg),
                 std::invalid_argument)
        << "reliable=" << reliable;
  }

  RunConfig noop;
  noop.plan.schedule.push_back({.round = 1, .node = 0, .up = true});
  EXPECT_FALSE(elect_leader(split, noop).complete);
  EXPECT_FALSE(build_bfs_tree(split, 0, noop).complete);
  EXPECT_FALSE(distributed_waf_cds(split, noop).complete);
  EXPECT_FALSE(distributed_greedy_cds(split, noop).complete);
}

TEST(FaultInjection, TotalLossDropsEverySend) {
  const Graph g = mcds::test::make_star(4);
  FaultPlan plan;
  plan.link.drop = 1.0;
  Runtime rt(g, plan);
  FloodProbe p(rt);
  const RunStats stats = rt.run(p);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(rt.faults().dropped, 3u);  // the center's opening broadcast
  EXPECT_TRUE(p.seen()[0]);
  for (NodeId v = 1; v < 4; ++v) EXPECT_FALSE(p.seen()[v]);
}

TEST(FaultInjection, TotalLossLeavesProtocolIncompleteNotThrowing) {
  const Graph g = mcds::test::make_path(5);
  RunConfig cfg;
  cfg.plan.link.drop = 1.0;
  const auto mis = elect_mis(g, std::vector<NodeId>(5, 0), cfg);
  EXPECT_FALSE(mis.complete);
  EXPECT_EQ(mis.mis, std::vector<NodeId>{0});  // only the rank minimum decided
}

TEST(FaultInjection, DuplicationInjectsCountedExtraCopies) {
  const Graph g = mcds::test::make_star(4);
  FaultPlan plan;
  plan.link.duplicate = 1.0;
  Runtime rt(g, plan);
  FloodProbe p(rt);
  const RunStats stats = rt.run(p);
  // 3 outbound + 3 replies, each doubled.
  EXPECT_EQ(stats.messages, 12u);
  EXPECT_EQ(rt.faults().duplicated, 6u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_TRUE(p.seen()[v]);
}

TEST(FaultInjection, DelayReordersButLosesNothing) {
  const Graph g = mcds::test::make_grid(3, 3);
  const RunStats ideal = [&] {
    Runtime rt(g);
    FloodProbe p(rt);
    return rt.run(p);
  }();

  FaultPlan plan;
  plan.link.max_delay = 3;
  plan.seed = 1;
  Runtime rt(g, plan);
  FloodProbe p(rt);
  const RunStats stats = rt.run(p);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_TRUE(p.seen()[v]);
  EXPECT_EQ(rt.faults().dropped, 0u);
  // Delay changes who rebroadcasts when, so the message count can move;
  // the flood itself must still deliver something everywhere.
  EXPECT_GE(stats.messages, g.num_nodes() - 1);
  EXPECT_GT(rt.faults().delayed, 0u);
  EXPECT_GE(stats.rounds, ideal.rounds);
}

TEST(FaultInjection, CrashDiscardsQueuedInbound) {
  const Graph g = mcds::test::make_path(3);
  FaultPlan plan;
  plan.schedule.push_back({1, 1, false});  // crash 1 before first delivery
  Runtime rt(g, plan);
  FloodProbe p(rt);
  const RunStats stats = rt.run(p);
  EXPECT_EQ(rt.faults().crash_discarded, 1u);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_FALSE(rt.is_up(1));
  EXPECT_TRUE(rt.is_up(0));
  EXPECT_FALSE(p.seen()[1]);
  EXPECT_FALSE(p.seen()[2]);
}

TEST(FaultInjection, SendToDownNodeIsSuppressed) {
  const Graph g = mcds::test::make_path(3);
  FaultPlan plan;
  plan.schedule.push_back({0, 1, false});  // down before the protocol starts
  Runtime rt(g, plan);
  FloodProbe p(rt);
  rt.run(p);
  EXPECT_EQ(rt.faults().suppressed, 1u);  // 0 -> 1 at start
  EXPECT_EQ(rt.faults().crash_discarded, 0u);
}

TEST(FaultInjection, RecoveredNodeReceivesAgain) {
  const Graph g = mcds::test::make_path(2);
  FaultPlan plan;
  plan.schedule.push_back({0, 1, false});
  plan.schedule.push_back({3, 1, true});
  Runtime rt(g, plan);
  Ticker t(rt, 8);
  rt.run(t);
  // Sends happen in rounds 0..7; those posted in rounds 0..2 target the
  // dead receiver, the rest land after the round-3 recovery.
  EXPECT_EQ(rt.faults().suppressed, 3u);
  EXPECT_EQ(t.received(), 5u);
  EXPECT_TRUE(rt.is_up(1));
}

TEST(FaultInjection, CrashedLeaderExcludedFromElection) {
  const Graph g = mcds::test::make_path(4);
  RunConfig cfg;
  cfg.plan.schedule.push_back({0, 0, false});
  const auto r = elect_leader(g, cfg);
  EXPECT_TRUE(r.complete);  // live nodes all agree
  EXPECT_EQ(r.leader, 1u);
}

TEST(FaultInjection, MidRunPartitionReportsIncomplete) {
  const Graph g = mcds::test::make_path(5);
  RunConfig cfg;
  cfg.plan.schedule.push_back({1, 2, false});  // sever the middle early
  const auto r = elect_leader(g, cfg);
  EXPECT_FALSE(r.complete);  // the two sides flood different minima
}

// Acceptance-criterion determinism guard: identical (seed, FaultPlan)
// must reproduce identical RunStats *and* identical message traces, even
// across the multi-phase waf pipeline.
TEST(Determinism, IdenticalPlanIdenticalTraceAndStats) {
  const Graph g = chaos_udg(21);
  FaultPlan plan;
  plan.link = {0.15, 0.1, 2};
  plan.seed = 77;
  plan.schedule.push_back({4, 3, false});
  plan.schedule.push_back({9, 7, false});

  for (const bool reliable : {false, true}) {
    std::vector<TraceEvent> trace_a;
    std::vector<TraceEvent> trace_b;
    RunConfig cfg_a;
    cfg_a.plan = plan;
    cfg_a.reliable = reliable;
    cfg_a.trace = &trace_a;
    RunConfig cfg_b = cfg_a;
    cfg_b.trace = &trace_b;

    const auto a = distributed_waf_cds(g, cfg_a);
    const auto b = distributed_waf_cds(g, cfg_b);
    EXPECT_EQ(trace_a, trace_b) << "reliable=" << reliable;
    EXPECT_FALSE(trace_a.empty());
    expect_stats_eq(a.total, b.total);
    EXPECT_EQ(a.cds, b.cds);
    EXPECT_EQ(a.complete, b.complete);
  }
}

TEST(Determinism, DifferentSeedDifferentTrace) {
  const Graph g = chaos_udg(22);
  std::vector<TraceEvent> trace_a;
  std::vector<TraceEvent> trace_b;
  RunConfig cfg;
  cfg.plan.link.drop = 0.3;
  cfg.plan.seed = 1;
  cfg.trace = &trace_a;
  (void)distributed_waf_cds(g, cfg);
  cfg.plan.seed = 2;
  cfg.trace = &trace_b;
  (void)distributed_waf_cds(g, cfg);
  EXPECT_NE(trace_a, trace_b);
}

TEST(RoundLimit, DiagnosticErrorCarriesRuntimeState) {
  const Graph g = mcds::test::make_path(2);
  Runtime rt(g);
  PingPong p(rt);
  try {
    rt.run(p, 5);
    FAIL() << "expected RoundLimitError";
  } catch (const RoundLimitError& e) {
    EXPECT_EQ(e.rounds_run(), 5u);
    EXPECT_EQ(e.in_flight(), 1u);
    ASSERT_EQ(e.pending_nodes().size(), 1u);
    const std::string what = e.what();
    EXPECT_NE(what.find("round limit exceeded after 5 rounds"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1 message(s) in flight"), std::string::npos) << what;
  }
}

TEST(RoundLimit, IsStillARuntimeError) {
  const Graph g = mcds::test::make_path(2);
  Runtime rt(g);
  PingPong p(rt);
  EXPECT_THROW(rt.run(p, 3), std::runtime_error);
}

// Like Ticker's receiver side, but remembers which payloads arrived at
// node 1 — enough to see exactly which rounds' sends crossed a cut.
class PayloadRecorder final : public Protocol {
 public:
  PayloadRecorder(Transport& net, std::size_t limit)
      : net_(net), limit_(limit) {}

  void start(NodeId self) override {
    if (self == 0) net_.send(0, 1, Message{0, 1, 0, 0});
  }
  void on_round_begin() override { ++round_; }
  void step(NodeId self, std::span<const Message> inbox) override {
    if (self == 1) {
      for (const Message& m : inbox) payloads_.push_back(m.a);
    }
    if (self == 0 && round_ < limit_) {
      net_.send(0, 1, Message{0, 1, static_cast<std::int64_t>(round_), 0});
    }
  }
  [[nodiscard]] bool idle() const override { return round_ >= limit_; }

  [[nodiscard]] const std::vector<std::int64_t>& payloads() const {
    return payloads_;
  }

 private:
  Transport& net_;
  std::size_t limit_;
  std::size_t round_ = 0;
  std::vector<std::int64_t> payloads_;
};

TEST(Partition, CrossCutSendsDroppedAndCounted) {
  const Graph g = mcds::test::make_path(4);
  FaultPlan plan;
  PartitionEvent split;
  split.round = 0;  // applied before start(): the flood never crosses
  split.groups = {{0, 1}, {2, 3}};
  plan.partitions.push_back(split);
  Runtime rt(g, plan);
  FloodProbe p(rt);
  rt.run(p);
  EXPECT_EQ(p.seen(), (std::vector<bool>{true, true, false, false}));
  EXPECT_GT(rt.faults().partition_dropped, 0u);
  EXPECT_EQ(rt.group_of(0), rt.group_of(1));
  EXPECT_NE(rt.group_of(1), rt.group_of(2));
  EXPECT_TRUE(rt.partitioned(1, 2));
  EXPECT_FALSE(rt.partitioned(0, 1));
  EXPECT_FALSE(rt.partitioned(2, 3));
}

TEST(Partition, UnlistedNodesShareTheImplicitExtraGroup) {
  // Isolating {3} from a star must leave every other leaf reachable.
  const Graph g = mcds::test::make_star(6);
  FaultPlan plan;
  plan.partitions.push_back({0, {{3}}});
  Runtime rt(g, plan);
  FloodProbe p(rt);
  rt.run(p);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(p.seen()[v], v != 3) << "node " << v;
  }
  EXPECT_EQ(rt.group_of(1), rt.group_of(2));
  EXPECT_NE(rt.group_of(3), rt.group_of(0));
}

TEST(Partition, HealRestoresDeliveryAndInFlightCutMessagesAreLost) {
  const Graph g = mcds::test::make_path(2);
  FaultPlan plan;
  plan.partitions.push_back({3, {{0}, {1}}});
  plan.partitions.push_back({6, {}});  // heal
  Runtime rt(g, plan);
  Ticker t(rt, 10);
  rt.run(t);
  // Payload r is sent in round r (r = 0..9). The round-2 send is in
  // flight when the split applies at the head of round 3 and is
  // discarded; sends in rounds 3..5 are dropped at the sender. Rounds
  // 0, 1 and 6..9 get through: four cut losses, six deliveries.
  EXPECT_EQ(rt.faults().partition_dropped, 4u);
  EXPECT_EQ(t.received(), 6u);
  EXPECT_FALSE(rt.partitioned(0, 1));  // healed by the end
}

// Edge case from the issue: a node that recovers in the very round the
// partition heals must start receiving again immediately — neither
// event may shadow the other.
TEST(Partition, RecoverySameRoundAsHealRestoresTraffic) {
  const Graph g = mcds::test::make_path(2);
  FaultPlan plan;
  plan.schedule.push_back({2, 1, false});
  plan.schedule.push_back({6, 1, true});
  plan.partitions.push_back({2, {{0}, {1}}});
  plan.partitions.push_back({6, {}});
  Runtime rt(g, plan);
  PayloadRecorder r(rt, 12);
  rt.run(r);
  // Payload 0 lands before the outage. Payload 1 is in flight when the
  // crash+split hit round 2 and is discarded; rounds 2..5 are blocked at
  // the sender. From round 6 — recovery and heal applied in the same
  // round, before deliveries — traffic flows again.
  EXPECT_EQ(r.payloads(),
            (std::vector<std::int64_t>{0, 6, 7, 8, 9, 10, 11}));
  EXPECT_TRUE(rt.is_up(1));
  EXPECT_FALSE(rt.partitioned(0, 1));
}

// Edge case from the issue: a crash scheduled at round 0 is applied in
// the runtime constructor, so the node never even start()s; the flood
// dies at the dead relay without throwing.
TEST(Partition, CrashAtRoundZeroNodeNeverParticipates) {
  const Graph g = mcds::test::make_path(3);
  FaultPlan plan;
  plan.schedule.push_back({0, 1, false});
  plan.schedule.push_back({5, 1, true});
  Runtime rt(g, plan);
  FloodProbe p(rt);
  const RunStats stats = rt.run(p);
  EXPECT_EQ(p.seen(), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(rt.faults().suppressed, 1u);  // 0 -> 1 at start
  EXPECT_EQ(stats.messages, 0u);          // nothing was ever delivered
  // The flood is event-driven, so the run quiesces long before the
  // scheduled recovery — the node stays down.
  EXPECT_FALSE(rt.is_up(1));
}

// Edge case from the issue: duplication plus delay under ReliableLink.
// Duplicated and delayed copies of a data frame share one sequence
// number, so receiver-side dedup hands the protocol each payload exactly
// once, in spite of the channel manufacturing extra copies.
TEST(FaultInjection, DuplicateAndDelayUnderReliableLinkDedup) {
  const Graph g = mcds::test::make_path(2);
  RunConfig cfg;
  cfg.plan.link.duplicate = 0.9;
  cfg.plan.link.max_delay = 2;
  cfg.plan.seed = 13;
  cfg.reliable = true;
  FaultHarness h(g, cfg, 0, "dedup_probe");
  Ticker t(h.net(), 8);
  h.run(t);
  EXPECT_EQ(t.received(), 8u);  // exactly once per payload
  ASSERT_NE(h.link(), nullptr);
  EXPECT_GT(h.link()->dedup_hits(), 0u);
  EXPECT_GT(h.runtime().faults().duplicated, 0u);
}

TEST(FaultPlan, GroupsAtReportsTheLatestEvent) {
  FaultPlan plan;
  plan.partitions.push_back({2, {{0, 1}, {3}}});
  plan.partitions.push_back({7, {}});
  const auto before = plan.groups_at(4, 1);
  EXPECT_EQ(before, (std::vector<std::uint32_t>{0, 0, 0, 0}));
  const auto during = plan.groups_at(4, 5);
  EXPECT_EQ(during[0], during[1]);
  EXPECT_NE(during[0], during[3]);
  EXPECT_EQ(during[2], 2u);  // unlisted node: implicit extra group
  const auto after = plan.groups_at(4, SIZE_MAX);
  EXPECT_EQ(after, (std::vector<std::uint32_t>{0, 0, 0, 0}));
}

TEST(FaultPlan, ValidateRejectsOversizedDelayAndOverlappingGroups) {
  const Graph g = mcds::test::make_path(3);
  {
    FaultPlan plan;
    plan.link.max_delay = kMaxLinkDelay + 1;
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.overrides.push_back({0, 1, {0.0, 0.0, kMaxLinkDelay + 1}});
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.partitions.push_back({1, {{0, 1}, {1, 2}}});  // 1 in two groups
    EXPECT_THROW(Runtime(g, plan), std::invalid_argument);
  }
}

}  // namespace
