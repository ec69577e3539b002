// Tests for the causal tracing layer (src/obs/causal.*) and its wiring
// through the distributed runtime: span lifecycle and happened-before
// parenting, critical-path extraction, crash/drop semantics (no span
// for a dropped send, an undelivered span for a crash-discarded one),
// ReliableLink context preservation across retransmissions, phase
// summing in RunStats, and the differential determinism contract (the
// critical-path report and causal JSONL are byte-identical across
// repeated runs and across thread-pool sizes on a seeded corpus).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/distributed_cds.hpp"
#include "dist/reliable_link.hpp"
#include "dist/runtime.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"

namespace mcds {
namespace {

using dist::Message;
using dist::Runtime;
using graph::Graph;
using graph::NodeId;

udg::UdgInstance instance(std::size_t n, std::uint64_t seed = 5) {
  udg::InstanceParams params;
  params.nodes = n;
  params.side = std::sqrt(static_cast<double>(n)) * 0.85;
  return udg::generate_largest_component_instance(params, seed);
}

// A token relay on a path: node 0 emits one token, every node forwards
// it to the next higher neighbor. The causal chain is exactly the k
// hops of the path, which makes every depth assertable by hand.
class Relay final : public dist::Protocol {
 public:
  explicit Relay(dist::Transport& net) : net_(net) {}
  void start(NodeId self) override {
    if (self == 0) net_.send(0, 1, Message{0, 1, 0, 0});
  }
  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (m.type != 1) continue;
      ++received_[self];
      if (self + 1 < net_.topology().num_nodes()) {
        net_.send(self, self + 1, Message{0, 1, 0, 0});
      }
    }
  }
  /// Tokens delivered to \p v (exactly-once check under ReliableLink).
  [[nodiscard]] std::size_t received(NodeId v) const {
    const auto it = received_.find(v);
    return it == received_.end() ? 0 : it->second;
  }

 private:
  dist::Transport& net_;
  std::map<NodeId, std::size_t> received_;
};

// ---------------------------------------------------------- tracer unit

TEST(CausalTracer, SpanLifecycleAndDepthChains) {
  obs::CausalTracer tr;
  const auto t = tr.begin_trace("unit");
  // Root send: no parent, depth 1.
  const auto root = tr.on_send(t, {}, 0, 1, 7, 0);
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(tr.span(root).parent, obs::kNoSpan);
  EXPECT_EQ(tr.span(root).depth, 1u);
  EXPECT_FALSE(tr.span(root).delivered());
  EXPECT_EQ(tr.max_depth(t), 0u);  // nothing delivered yet

  tr.on_deliver(root, 1);
  EXPECT_TRUE(tr.span(root).delivered());
  EXPECT_EQ(tr.span(root).delivered_round, 1u);
  EXPECT_EQ(tr.max_depth(t), 1u);

  // A child sent under the delivered span's context extends the chain.
  const auto ctx = tr.context_of(root);
  EXPECT_EQ(ctx.span, root);
  EXPECT_EQ(ctx.depth, 1u);
  const auto child = tr.on_send(t, ctx, 1, 2, 7, 1);
  EXPECT_EQ(tr.span(child).parent, root);
  EXPECT_EQ(tr.span(child).depth, 2u);
  tr.on_deliver(child, 2);
  EXPECT_EQ(tr.max_depth(t), 2u);

  ASSERT_EQ(tr.traces().size(), 1u);
  EXPECT_EQ(tr.traces()[0].spans, 2u);
  EXPECT_EQ(tr.traces()[0].delivered, 2u);
  EXPECT_EQ(tr.traces()[0].deepest, child);
}

TEST(CausalTracer, NoSpanAndOutOfRangeContextsAreRoots) {
  obs::CausalTracer tr;
  const auto none = tr.context_of(obs::kNoSpan);
  EXPECT_EQ(none.span, obs::kNoSpan);
  EXPECT_EQ(none.depth, 0u);
  const auto bogus = tr.context_of(999);
  EXPECT_EQ(bogus.span, obs::kNoSpan);
  // Delivering nonsense must be a safe no-op.
  tr.on_deliver(obs::kNoSpan, 3);
  tr.on_deliver(999, 3);
  EXPECT_EQ(tr.num_spans(), 0u);
}

TEST(CausalTracer, DuplicateDeliveryOfOneSpanCountsOnce) {
  obs::CausalTracer tr;
  const auto t = tr.begin_trace("dup");
  const auto s = tr.on_send(t, {}, 0, 1, 0, 0);
  tr.on_deliver(s, 1);
  tr.on_deliver(s, 5);  // a second delivery must not rewrite the first
  EXPECT_EQ(tr.span(s).delivered_round, 1u);
  EXPECT_EQ(tr.traces()[0].delivered, 1u);
}

TEST(CausalTracer, DeepestTieBreaksTowardSmallestSpanId) {
  obs::CausalTracer tr;
  const auto t = tr.begin_trace("tie");
  const auto a = tr.on_send(t, {}, 0, 1, 0, 0);
  const auto b = tr.on_send(t, {}, 0, 2, 0, 0);
  tr.on_deliver(a, 1);
  tr.on_deliver(b, 1);  // equal depth, later id: must not displace a
  EXPECT_EQ(tr.traces()[0].deepest, a);
  // A strictly deeper chain does displace it.
  const auto c = tr.on_send(t, tr.context_of(b), 2, 3, 0, 1);
  tr.on_deliver(c, 2);
  EXPECT_EQ(tr.traces()[0].deepest, c);
  EXPECT_EQ(tr.max_depth(t), 2u);
}

TEST(CausalTracer, TracesAreIndependent) {
  obs::CausalTracer tr;
  const auto t0 = tr.begin_trace("first");
  const auto t1 = tr.begin_trace("second");
  const auto a = tr.on_send(t0, {}, 0, 1, 0, 0);
  const auto b = tr.on_send(t1, {}, 0, 1, 0, 0);
  tr.on_deliver(a, 1);
  tr.on_deliver(b, 1);
  const auto c = tr.on_send(t1, tr.context_of(b), 1, 0, 0, 1);
  tr.on_deliver(c, 2);
  EXPECT_EQ(tr.max_depth(t0), 1u);
  EXPECT_EQ(tr.max_depth(t1), 2u);
  EXPECT_EQ(tr.traces()[0].label, "first");
  EXPECT_EQ(tr.traces()[1].label, "second");
}

// ------------------------------------------------- critical-path report

TEST(CriticalPath, ExtractsHopsInCausalOrder) {
  obs::CausalTracer tr;
  const auto t = tr.begin_trace("chain");
  obs::CausalContext ctx;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto s = tr.on_send(t, ctx, i, i + 1, 4, i);
    tr.on_deliver(s, i + 1);
    ctx = tr.context_of(s);
  }
  const auto report = obs::critical_path(tr);
  ASSERT_EQ(report.traces.size(), 1u);
  const obs::CriticalPath& p = report.traces[0];
  EXPECT_EQ(p.length, 3u);
  EXPECT_EQ(report.total_length(), 3u);
  ASSERT_EQ(p.hops.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p.hops[i].from, i);
    EXPECT_EQ(p.hops[i].to, i + 1);
    EXPECT_EQ(p.hops[i].type, 4);
    EXPECT_EQ(p.hops[i].sent_round, i);
    EXPECT_EQ(p.hops[i].delivered_round, i + 1);
  }
  EXPECT_EQ(p.first_sent_round, 0u);
  EXPECT_EQ(p.last_delivered_round, 3u);
  EXPECT_EQ(p.rounds_span(), 4u);  // rounds 0..3 inclusive

  std::ostringstream os;
  report.write(os, /*hops=*/true);
  const std::string text = os.str();
  EXPECT_NE(text.find("[chain] spans=3 delivered=3 critical_path=3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("    1 -> 2 type=4 sent@1 delivered@2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("total critical path: 3 message(s) over 1 trace(s)"),
            std::string::npos)
      << text;
}

TEST(CriticalPath, EmptyTraceReportsZero) {
  obs::CausalTracer tr;
  tr.begin_trace("silent");
  const auto report = obs::critical_path(tr);
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_EQ(report.traces[0].length, 0u);
  EXPECT_TRUE(report.traces[0].hops.empty());
  EXPECT_EQ(report.traces[0].rounds_span(), 0u);
  EXPECT_EQ(report.total_length(), 0u);
}

TEST(CausalJsonl, OneObjectPerSpanWithDeliveryStatus) {
  obs::CausalTracer tr;
  const auto t = tr.begin_trace("jsonl");
  const auto a = tr.on_send(t, {}, 0, 1, 2, 0);
  tr.on_deliver(a, 1);
  (void)tr.on_send(t, tr.context_of(a), 1, 0, 3, 1);  // never delivered
  std::ostringstream os;
  obs::write_causal_jsonl(tr, os);
  const std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("{\"span\":1,\"parent\":0,\"trace\":0,\"from\":0,"
                      "\"to\":1,\"type\":2,\"depth\":1,\"sent\":0,"
                      "\"delivered\":1}"),
            std::string::npos)
      << text;
  // The undelivered span carries no "delivered" key.
  EXPECT_NE(text.find("{\"span\":2,\"parent\":1,\"trace\":0,\"from\":1,"
                      "\"to\":0,\"type\":3,\"depth\":2,\"sent\":1}"),
            std::string::npos)
      << text;
}

// -------------------------------------------------------- runtime wiring

TEST(RuntimeCausal, RelayChainDepthEqualsHopCount) {
  constexpr std::size_t kNodes = 7;  // 6 hops
  const Graph g = test::make_path(kNodes);
  obs::CausalTracer tracer;
  obs::Obs o;
  o.causal = &tracer;
  Runtime rt(g);
  rt.observe(o, "relay");
  Relay p(rt);
  const auto stats = rt.run(p);
  EXPECT_EQ(stats.critical_path, kNodes - 1);
  EXPECT_EQ(tracer.num_spans(), kNodes - 1);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.traces()[0].label, "relay");
  EXPECT_EQ(tracer.traces()[0].delivered, kNodes - 1);

  // The extracted chain is the path itself, hop by hop.
  const auto report = obs::critical_path(tracer);
  ASSERT_EQ(report.traces.size(), 1u);
  ASSERT_EQ(report.traces[0].hops.size(), kNodes - 1);
  for (std::uint32_t i = 0; i + 1 < kNodes; ++i) {
    EXPECT_EQ(report.traces[0].hops[i].from, i);
    EXPECT_EQ(report.traces[0].hops[i].to, i + 1);
  }
  EXPECT_LE(stats.critical_path, stats.rounds);
}

TEST(RuntimeCausal, UntracedRunStampsNoSpans) {
  const Graph g = test::make_path(4);
  Runtime rt(g);  // no observe(): causal stays off
  Relay p(rt);
  const auto stats = rt.run(p);
  EXPECT_EQ(stats.critical_path, 0u);
}

TEST(RuntimeCausal, CrashDiscardedMessageLeavesUndeliveredSpan) {
  const Graph g = test::make_path(2);
  dist::FaultPlan plan;
  plan.schedule.push_back({1, 1, false});  // node 1 dies at round 1
  obs::CausalTracer tracer;
  obs::Obs o;
  o.causal = &tracer;
  Runtime rt(g, plan);
  rt.observe(o, "doomed");
  Relay p(rt);
  const auto stats = rt.run(p);
  // The send happened (span recorded) but the crash swallowed it.
  ASSERT_EQ(tracer.num_spans(), 1u);
  EXPECT_FALSE(tracer.span(1).delivered());
  EXPECT_EQ(tracer.traces()[0].delivered, 0u);
  EXPECT_EQ(stats.critical_path, 0u);
  EXPECT_EQ(rt.faults().crash_discarded, 1u);
}

TEST(RuntimeCausal, ChannelDroppedSendRecordsNoSpan) {
  const Graph g = test::make_path(2);
  dist::FaultPlan plan;
  plan.link.drop = 1.0;  // every transmission is lost at the channel
  obs::CausalTracer tracer;
  obs::Obs o;
  o.causal = &tracer;
  Runtime rt(g, plan);
  rt.observe(o, "void");
  Relay p(rt);
  (void)rt.run(p);
  // Stamping happens after channel sampling: a dropped message never
  // existed as a span, so delivered == spans stays an invariant even on
  // lossy channels.
  EXPECT_EQ(tracer.num_spans(), 0u);
  EXPECT_GT(rt.faults().dropped, 0u);
}

TEST(RuntimeCausal, ReliableRetransmissionsExtendTheOriginalChain) {
  constexpr std::size_t kNodes = 7;
  const Graph g = test::make_path(kNodes);

  // Clean reliable baseline.
  const auto run_reliable = [&](const dist::FaultPlan& plan,
                                obs::CausalTracer& tracer,
                                std::size_t& retransmissions) {
    obs::Obs o;
    o.causal = &tracer;
    Runtime rt(g, plan);
    rt.observe(o, "relay");
    dist::ReliableLink link(rt, {});
    Relay p(link);
    link.attach(p);
    const auto stats = rt.run(link);
    retransmissions = link.retransmissions();
    EXPECT_EQ(link.expired(), 0u);
    // Exactly-once delivery to the protocol at the far end.
    EXPECT_EQ(p.received(kNodes - 1), 1u);
    return stats;
  };

  obs::CausalTracer clean;
  std::size_t clean_retx = 0;
  const auto clean_stats = run_reliable({}, clean, clean_retx);
  EXPECT_EQ(clean_retx, 0u);

  dist::FaultPlan lossy;
  lossy.link.drop = 0.3;
  lossy.seed = 11;
  obs::CausalTracer faulty;
  std::size_t faulty_retx = 0;
  const auto faulty_stats = run_reliable(lossy, faulty, faulty_retx);
  EXPECT_GT(faulty_retx, 0u);

  // A retransmitted copy is sent under the context captured at first
  // post, so the k-hop relay chain survives arbitrary losses: the lossy
  // critical path can only meet or exceed the clean one (acks riding on
  // retried frames can deepen it further). If retries rooted fresh
  // chains instead, the data chain would fragment into depth <= rto
  // pieces and this lower bound would break.
  EXPECT_GE(clean_stats.critical_path, kNodes - 1);
  EXPECT_GE(faulty_stats.critical_path, clean_stats.critical_path);
  EXPECT_LE(faulty_stats.critical_path, faulty_stats.rounds);
}

TEST(RuntimeCausal, CriticalPathSumsAcrossPhasesAndFlushesCounters) {
  const auto inst = instance(80);
  obs::CausalTracer tracer;
  obs::MetricsRegistry reg;
  dist::RunConfig cfg;
  cfg.obs.causal = &tracer;
  cfg.obs.metrics = &reg;
  const auto r = dist::distributed_waf_cds(inst.graph, cfg);

  // One trace per phase, and the summed RunStats carries the summed
  // critical path (phases are barrier-synchronized).
  ASSERT_EQ(tracer.traces().size(), 4u);
  std::size_t phase_sum = 0;
  for (std::uint32_t t = 0; t < tracer.traces().size(); ++t) {
    phase_sum += tracer.max_depth(t);
  }
  EXPECT_EQ(r.total.critical_path, phase_sum);
  EXPECT_EQ(obs::critical_path(tracer).total_length(), phase_sum);
  EXPECT_GT(r.total.critical_path, 0u);
  EXPECT_LE(r.total.critical_path, r.total.rounds);
  EXPECT_EQ(r.leader_stats.critical_path, tracer.max_depth(0));

  // The registry flush mirrors the per-phase values.
  EXPECT_EQ(reg.counters().at("leader_election.critical_path").value(),
            r.leader_stats.critical_path);
  EXPECT_EQ(reg.counters().at("bfs_tree.critical_path").value(),
            r.tree.stats.critical_path);
}

// --------------------------------------------------------- differential

// The acceptance contract of the tracing layer: on a seeded corpus the
// critical-path report (with hops) and the causal JSONL dump are
// byte-identical across repeated executions and across thread-pool
// sizes (the pool parallelizes graph construction; the runtime is
// serial, so nothing downstream may observe the difference).
TEST(CausalDifferential, ReportByteIdenticalAcrossRepeatsAndThreadCounts) {
  for (const std::uint64_t seed : {5u, 11u}) {
    const auto inst = instance(90, seed);
    const auto run_traced = [&](const Graph& g) {
      obs::CausalTracer tracer;
      dist::RunConfig cfg;
      cfg.plan.link.drop = 0.1;
      cfg.plan.link.max_delay = 1;
      cfg.plan.seed = 7;
      cfg.reliable = true;
      cfg.obs.causal = &tracer;
      (void)dist::distributed_waf_cds(g, cfg);
      std::ostringstream report, jsonl;
      obs::critical_path(tracer).write(report, /*hops=*/true);
      obs::write_causal_jsonl(tracer, jsonl);
      return std::pair{report.str(), jsonl.str()};
    };

    const auto base = run_traced(inst.graph);
    EXPECT_FALSE(base.first.empty());
    EXPECT_FALSE(base.second.empty());
    EXPECT_EQ(base, run_traced(inst.graph)) << "repeat diverged, seed "
                                            << seed;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      par::ThreadPool pool(threads);
      const Graph g = udg::build_udg(inst.points, inst.radius, pool);
      EXPECT_EQ(base, run_traced(g))
          << "diverged at " << threads << " threads, seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mcds
