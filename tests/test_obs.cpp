// Tests for the observability layer (src/obs/): metrics registry,
// trace recorder + sinks, the RAII timer, the null-sink zero-cost
// guarantee (no output, no allocation), trace determinism across
// identical (seed, FaultPlan) executions, and the instrumentation wired
// through the runtime, connector engine and maintenance stack.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/connector_engine.hpp"
#include "core/greedy_connect.hpp"
#include "core/mis.hpp"
#include "dist/distributed_cds.hpp"
#include "dist/maintenance.hpp"
#include "dist/runtime.hpp"
#include "obs/obs.hpp"
#include "obs/timer.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

// Allocation counter fed by the replaced global operator new in
// test_obs_alloc_hooks.cpp (a separate TU, see the note there).
namespace mcds_test {
extern std::atomic<std::size_t> g_alloc_count;
}  // namespace mcds_test

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

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, CreateOrGetReturnsStableAddresses) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter& a = reg.counter("x");
  a.add(3);
  // Forcing rehash-scale growth must not move the counter.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler" + std::to_string(i));
  }
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, WriteJsonIsSortedAndComplete) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("g").set(1.5);
  for (double x : {1.0, 2.0, 3.0, 4.0}) reg.histogram("h").record(x);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos);
}

TEST(Obs, NullHandleResolvesNothing) {
  const obs::Obs o;
  EXPECT_FALSE(o.enabled());
  EXPECT_EQ(o.counter("x"), nullptr);
  EXPECT_EQ(o.gauge("x"), nullptr);
  EXPECT_EQ(o.histogram("x"), nullptr);
}

// ------------------------------------------------------------------ trace

TEST(TraceRecorder, LogicalClockIsMonotonePerRecord) {
  obs::TraceRecorder tr(16);
  const auto id = tr.intern("work");
  tr.span_begin(id);
  tr.instant(id, 42);
  tr.span_end(id);
  const auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LT(records[0].ts, records[1].ts);
  EXPECT_LT(records[1].ts, records[2].ts);
  EXPECT_EQ(records[1].value, 42);
  EXPECT_EQ(tr.name(records[0].name), "work");
}

TEST(TraceRecorder, InternIsIdempotent) {
  obs::TraceRecorder tr(16);
  EXPECT_EQ(tr.intern("a"), tr.intern("a"));
  EXPECT_NE(tr.intern("a"), tr.intern("b"));
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDropped) {
  obs::TraceRecorder tr(4);
  const auto id = tr.intern("e");
  for (std::int64_t i = 0; i < 10; ++i) tr.instant(id, i);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().value, 6);  // oldest retained
  EXPECT_EQ(records.back().value, 9);
}

TEST(TraceRecorder, RingBehaviorExactlyAtCapacityBoundary) {
  obs::TraceRecorder tr(4);
  const auto id = tr.intern("e");
  // One below capacity: nothing dropped.
  for (std::int64_t i = 0; i < 3; ++i) tr.instant(id, i);
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 0u);
  // Exactly at capacity: still nothing dropped, all retained in order.
  tr.instant(id, 3);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 0u);
  auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().value, 0);
  EXPECT_EQ(records.back().value, 3);
  // One past capacity: exactly the oldest record falls off.
  tr.instant(id, 4);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 1u);
  records = tr.snapshot();
  EXPECT_EQ(records.front().value, 1);
  EXPECT_EQ(records.back().value, 4);
}

TEST(TraceRecorder, CapacityOneRingKeepsOnlyTheNewest) {
  obs::TraceRecorder tr(1);
  const auto id = tr.intern("e");
  tr.instant(id, 1);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.instant(id, 2);
  EXPECT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.dropped(), 1u);
  const auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().value, 2);
}

TEST(TraceSinks, JsonlAndChromeContainTheEvents) {
  obs::TraceRecorder tr(16);
  const auto id = tr.intern("phase \"x\"");  // exercises JSON escaping
  tr.span_begin(id);
  tr.counter(id, 7);
  tr.span_end(id);
  std::ostringstream jsonl, chrome;
  obs::write_jsonl(tr, jsonl);
  obs::write_chrome_trace(tr, chrome);
  EXPECT_NE(jsonl.str().find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("phase \\\"x\\\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(TraceSinks, ChromeLeadsWithProcessAndThreadMetadata) {
  obs::TraceRecorder tr(16);
  tr.set_track_name(1, "pool");
  const auto id = tr.intern("work");
  tr.span_begin(id, 1);
  tr.span_end(id, 1);
  std::ostringstream chrome;
  obs::write_chrome_trace(tr, chrome);
  const std::string text = chrome.str();
  const auto process = text.find("\"name\":\"process_name\"");
  const auto thread = text.find("\"name\":\"thread_name\"");
  ASSERT_NE(process, std::string::npos) << text;
  ASSERT_NE(thread, std::string::npos) << text;
  EXPECT_LT(process, thread);  // metadata precedes the event stream
  EXPECT_LT(thread, text.find("\"ph\":\"B\""));
  EXPECT_NE(text.find("\"args\":{\"name\":\"mcds\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"args\":{\"name\":\"pool\"}"), std::string::npos)
      << text;
}

TEST(TraceTail, FormatsTheLastNRecords) {
  obs::TraceRecorder tr(16);
  const auto id = tr.intern("phase");
  EXPECT_EQ(obs::format_trace_tail(tr, 4), "");  // empty recorder
  tr.span_begin(id);
  tr.instant(id, 7);
  tr.span_end(id);
  EXPECT_EQ(obs::format_trace_tail(tr, 0), "");  // n == 0 disables
  const auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 3u);
  const std::string tail = obs::format_trace_tail(tr, 2);
  // Only the last two records survive the cut.
  EXPECT_EQ(tail.find("ts=" + std::to_string(records[0].ts) + " B"),
            std::string::npos)
      << tail;
  EXPECT_NE(tail.find("last trace events:"), std::string::npos) << tail;
  EXPECT_NE(tail.find("ts=" + std::to_string(records[1].ts) + " i phase=7"),
            std::string::npos)
      << tail;
  EXPECT_NE(tail.find("ts=" + std::to_string(records[2].ts) + " E phase"),
            std::string::npos)
      << tail;
}

TEST(ScopedTimer, EmitsBalancedSpanAndHistogramSample) {
  obs::MetricsRegistry reg;
  obs::TraceRecorder tr(16);
  const obs::Obs o{&reg, &tr};
  {
    obs::ScopedTimer t(o, "unit");
  }
  const auto records = tr.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, obs::RecordKind::kSpanBegin);
  EXPECT_EQ(records[1].kind, obs::RecordKind::kSpanEnd);
  EXPECT_EQ(reg.histograms().at("unit").acc().count(), 1u);
}

TEST(ScopedTimer, HistogramOnlyRecordsWallDuration) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("wall");
  {
    obs::ScopedTimer t(nullptr, "wall", &h);
  }
  EXPECT_EQ(h.acc().count(), 1u);
  EXPECT_GE(h.acc().min(), 0.0);
}

// -------------------------------------------------------------- null sink

TEST(NullSink, ResolversAndTimerAllocateNothing) {
  const obs::Obs o;  // null sinks
  const std::size_t before = mcds_test::g_alloc_count.load();
  for (int i = 0; i < 100; ++i) {
    obs::Counter* c = o.counter("some.metric.name");
    obs::ScopedTimer t(o, "some.span.name");
    if (c) c->add();
  }
  EXPECT_EQ(mcds_test::g_alloc_count.load(), before);
}

TEST(NullSink, ConnectorEngineRunsIdenticallyWithAndWithoutObs) {
  const auto inst = instance(300);
  const auto phase1 = core::bfs_first_fit_mis(inst.graph, 0);

  const auto plain = core::greedy_connectors(inst.graph, phase1.mis);
  obs::MetricsRegistry reg;
  obs::TraceRecorder tr;
  const obs::Obs o{&reg, &tr};
  const auto observed = core::greedy_connectors(inst.graph, phase1.mis, o);

  EXPECT_EQ(plain.first, observed.first);  // bit-identical selection
  // Every successful selection, retirement and stale re-score starts
  // with a pop (pops also count already-member skips, hence >=).
  EXPECT_GE(reg.counters().at("connector_engine.pops").value(),
            reg.counters().at("connector_engine.stale_rescores").value() +
                reg.counters().at("connector_engine.retired").value() +
                plain.first.size());
  EXPECT_GT(reg.counters().at("connector_engine.uf_finds").value(), 0u);
  EXPECT_FALSE(tr.empty());
}

// ----------------------------------------------------------- determinism

TEST(Determinism, IdenticalSeedAndPlanYieldByteIdenticalJsonl) {
  const auto inst = instance(60);
  const auto run = [&](std::string& out) {
    obs::TraceRecorder tr;
    dist::RunConfig cfg;
    cfg.plan.link.drop = 0.15;
    cfg.plan.link.max_delay = 1;
    cfg.plan.seed = 99;
    cfg.obs.trace = &tr;
    (void)dist::distributed_waf_cds(inst.graph, cfg);
    std::ostringstream os;
    obs::write_jsonl(tr, os);
    out = os.str();
  };
  std::string a, b;
  run(a);
  run(b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsYieldDifferentJsonl) {
  const auto inst = instance(60);
  const auto run = [&](std::uint64_t seed, std::string& out) {
    obs::TraceRecorder tr;
    dist::RunConfig cfg;
    cfg.plan.link.drop = 0.15;
    cfg.plan.seed = seed;
    cfg.obs.trace = &tr;
    (void)dist::distributed_waf_cds(inst.graph, cfg);
    std::ostringstream os;
    obs::write_jsonl(tr, os);
    out = os.str();
  };
  std::string a, b;
  run(1, a);
  run(2, b);
  EXPECT_NE(a, b);
}

// -------------------------------------------------------- runtime wiring

TEST(RuntimeObs, FlushesPerProtocolCountersAndRunStatsBreakdown) {
  const auto inst = instance(80);
  obs::MetricsRegistry reg;
  dist::RunConfig cfg;
  cfg.obs.metrics = &reg;
  const auto r = dist::distributed_waf_cds(inst.graph, cfg);

  const auto& counters = reg.counters();
  EXPECT_EQ(counters.at("leader_election.rounds").value(),
            r.leader_stats.rounds);
  EXPECT_EQ(counters.at("bfs_tree.messages").value(), r.tree.stats.messages);
  EXPECT_TRUE(counters.count("mis_election.rounds") == 1);
  EXPECT_TRUE(counters.count("connector_selection.rounds") == 1);

  // Step counters: the mail-driven BFS steps only the nodes with mail;
  // the round-indexed connector phase steps every node every round.
  const std::size_t n = inst.graph.num_nodes();
  EXPECT_GT(counters.at("bfs_tree.steps").value(), 0u);
  EXPECT_LT(counters.at("bfs_tree.steps").value(), n * r.tree.stats.rounds);
  EXPECT_EQ(counters.at("connector_selection.steps").value(),
            n * r.connectors.stats.rounds);

  // Per-type breakdown sums to the message total, and per_round to both.
  ASSERT_FALSE(r.total.by_type.empty());
  std::size_t sum = 0;
  for (const auto& [t, c] : r.total.by_type) sum += c;
  EXPECT_EQ(sum, r.total.messages);
  std::size_t round_sum = 0;
  for (const std::size_t c : r.total.per_round) round_sum += c;
  EXPECT_EQ(round_sum, r.total.messages);
  EXPECT_EQ(r.total.per_round.size(), r.total.rounds);
}

TEST(RunStats, OfTypeAndMergeByType) {
  dist::RunStats a;
  a.rounds = 2;
  a.messages = 10;
  a.by_type = {{0, 6}, {2, 4}};
  a.per_round = {4, 6};
  dist::RunStats b;
  b.rounds = 1;
  b.messages = 5;
  b.by_type = {{1, 2}, {2, 3}};
  b.per_round = {5};
  a += b;
  EXPECT_EQ(a.rounds, 3u);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.of_type(0), 6u);
  EXPECT_EQ(a.of_type(1), 2u);
  EXPECT_EQ(a.of_type(2), 7u);
  EXPECT_EQ(a.of_type(9), 0u);
  const std::vector<std::size_t> want{4, 6, 5};
  EXPECT_EQ(a.per_round, want);
}

// A protocol that never quiesces: each node echoes everything back with
// a type-specific payload, keeping typed traffic in flight forever.
class Chatter final : public dist::Protocol {
 public:
  explicit Chatter(dist::Transport& net) : net_(net) {}
  void start(NodeId self) override {
    if (self == 0) {
      net_.send(0, 1, Message{0, 7, 0, 0});  // type 7
      net_.send(0, 1, Message{0, 9, 0, 0});  // type 9
    }
  }
  void step(NodeId self, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      net_.send(self, m.from, Message{0, m.type, 0, 0});
    }
  }

 private:
  dist::Transport& net_;
};

TEST(RoundLimit, BreakdownNamesProtocolAndTypes) {
  const Graph g = test::make_path(2);
  Runtime rt(g);
  rt.observe(obs::Obs{}, "chatter");
  Chatter p(rt);
  try {
    rt.run(p, 5);
    FAIL() << "expected RoundLimitError";
  } catch (const dist::RoundLimitError& e) {
    EXPECT_EQ(e.protocol(), "chatter");
    ASSERT_EQ(e.in_flight_by_type().size(), 2u);
    EXPECT_EQ(e.in_flight_by_type()[0].first, 7);
    EXPECT_EQ(e.in_flight_by_type()[0].second, 1u);
    EXPECT_EQ(e.in_flight_by_type()[1].first, 9);
    const std::string what = e.what();
    EXPECT_NE(what.find("round limit exceeded after 5 rounds"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("[chatter]"), std::string::npos) << what;
    EXPECT_NE(what.find("type 7 x1"), std::string::npos) << what;
    EXPECT_NE(what.find("type 9 x1"), std::string::npos) << what;
  }
}

TEST(RoundLimit, WhatAppendsTraceTailPostMortemWhenRecorderAttached) {
  const Graph g = test::make_path(2);
  obs::TraceRecorder tr;
  obs::Obs o;
  o.trace = &tr;
  Runtime rt(g);
  rt.observe(o, "chatter");
  Chatter p(rt);
  try {
    rt.run(p, 5);
    FAIL() << "expected RoundLimitError";
  } catch (const dist::RoundLimitError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("last trace events:"), std::string::npos) << what;
    EXPECT_NE(what.find("chatter"), std::string::npos) << what;
  }
  // Without a recorder the post-mortem tail is absent (the existing
  // BreakdownNamesProtocolAndTypes run covers the message body itself).
  Runtime bare(g);
  bare.observe(obs::Obs{}, "chatter");
  Chatter q(bare);
  try {
    bare.run(q, 5);
    FAIL() << "expected RoundLimitError";
  } catch (const dist::RoundLimitError& e) {
    EXPECT_EQ(std::string(e.what()).find("last trace events:"),
              std::string::npos);
  }
}

// ---------------------------------------------------- maintenance wiring

TEST(MaintenanceObs, CountsHealActions) {
  const auto inst = instance(120, 9);
  const auto r = core::greedy_cds(inst.graph);
  obs::MetricsRegistry reg;
  obs::TraceRecorder tr;
  const obs::Obs o{&reg, &tr};
  dist::SelfHealingCds healer(inst.graph, r.cds, o);

  std::vector<bool> up(inst.graph.num_nodes(), true);
  const auto intact = healer.on_churn(up);
  EXPECT_EQ(intact.action, dist::HealAction::kIntact);
  EXPECT_EQ(reg.counters().at("maintenance.intact").value(), 1u);

  // Kill one backbone node: some repair path must run and be counted.
  up[healer.cds().front()] = false;
  const auto healed = healer.on_churn(up);
  const std::uint64_t acted =
      reg.counters().at("maintenance.reconnected").value() +
      reg.counters().at("maintenance.repaired").value() +
      reg.counters().at("maintenance.rebuilt").value() +
      reg.counters().at("maintenance.unhealable").value() +
      reg.counters().at("maintenance.intact").value();
  EXPECT_EQ(acted, 2u);
  EXPECT_EQ(reg.histograms().at("maintenance.added").acc().count(), 2u);
  (void)healed;

  // Heal passes opened and closed spans.
  std::size_t begins = 0, ends = 0;
  for (const auto& rec : tr.snapshot()) {
    if (rec.kind == obs::RecordKind::kSpanBegin) ++begins;
    if (rec.kind == obs::RecordKind::kSpanEnd) ++ends;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GE(begins, 3u);  // two on_churn spans + at least one validate
}

}  // namespace
}  // namespace mcds
