#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dist/alzoubi_protocol.hpp"
#include "dist/bfs_tree.hpp"
#include "dist/connector_selection.hpp"
#include "dist/distributed_cds.hpp"
#include "dist/failure_detector.hpp"
#include "dist/fault.hpp"
#include "dist/greedy_protocol.hpp"
#include "dist/leader_election.hpp"
#include "dist/mis_election.hpp"
#include "dist/reliable_link.hpp"
#include "dist/runtime.hpp"
#include "graph/graph.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "udg/instance.hpp"

// Differential determinism suite for the parallel round engine: every
// protocol, run with a thread pool at several worker counts, must
// reproduce the serial runtime byte for byte — the delivered-message
// trace, RunStats (including causal critical path and the per-type /
// per-round breakdowns), FaultStats, metric values, and the protocol's
// own outputs. The serial runtime is the golden reference; any
// divergence is a scheduling leak in the capture/replay barrier.

namespace {

using mcds::dist::FaultPlan;
using mcds::dist::FaultStats;
using mcds::dist::Graph;
using mcds::dist::NodeId;
using mcds::dist::RunConfig;
using mcds::dist::RunStats;
using mcds::dist::TraceEvent;
using mcds::par::ThreadPool;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

Graph par_udg(std::uint64_t seed, std::size_t nodes) {
  mcds::udg::InstanceParams params;
  params.nodes = nodes;
  params.side = 6.0;
  params.radius = 1.7;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value()) << "graph seed " << seed;
  return inst->graph;
}

// Everything one execution produces that must be thread-count
// invariant.
struct Capture {
  std::vector<TraceEvent> trace;
  RunStats stats;
  FaultStats faults;
  std::string result;   ///< digest of the protocol's own outputs
  std::string metrics;  ///< sorted-JSON metric export
  std::size_t steps = 0;  ///< step() calls (run_untraced only)
};

// One protocol scenario: given a RunConfig (pool already set), run and
// capture. The callback fills `stats`, `faults` and `result`; trace,
// obs sinks and the metric export are wired by run_scenario.
using Scenario = std::function<void(const Graph&, RunConfig&, Capture&)>;

Capture run_scenario(const Graph& g, const Scenario& fn, const FaultPlan& plan,
                     bool reliable, ThreadPool* pool) {
  Capture cap;
  mcds::obs::MetricsRegistry reg;
  mcds::obs::CausalTracer tracer;
  RunConfig cfg;
  cfg.plan = plan;
  cfg.reliable = reliable;
  cfg.link = {.max_retries = 6, .rto = 3, .max_rto = 8, .ttl_rounds = 0};
  cfg.max_rounds = 4000;
  cfg.trace = &cap.trace;
  cfg.obs.metrics = &reg;
  cfg.obs.causal = &tracer;
  cfg.pool = pool;
  fn(g, cfg, cap);
  std::ostringstream ms;
  reg.write_json(ms);
  cap.metrics = ms.str();
  return cap;
}

void expect_stats_eq(const RunStats& a, const RunStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.critical_path, b.critical_path) << what;
  EXPECT_EQ(a.by_type, b.by_type) << what;
  EXPECT_EQ(a.per_round, b.per_round) << what;
}

void expect_faults_eq(const FaultStats& a, const FaultStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.duplicated, b.duplicated) << what;
  EXPECT_EQ(a.delayed, b.delayed) << what;
  EXPECT_EQ(a.crash_discarded, b.crash_discarded) << what;
  EXPECT_EQ(a.suppressed, b.suppressed) << what;
  EXPECT_EQ(a.partition_dropped, b.partition_dropped) << what;
}

void expect_identical(const Capture& serial, const Capture& par,
                      const std::string& what) {
  EXPECT_EQ(serial.trace, par.trace) << what << ": trace diverged";
  expect_stats_eq(serial.stats, par.stats, what + ": stats");
  expect_faults_eq(serial.faults, par.faults, what + ": faults");
  EXPECT_EQ(serial.result, par.result) << what << ": protocol output";
  EXPECT_EQ(serial.metrics, par.metrics) << what << ": metric export";
}

std::string join_ids(const std::vector<NodeId>& ids) {
  std::ostringstream os;
  for (const NodeId v : ids) os << v << ',';
  return os.str();
}

// The eight protocols, each as a scenario. Phase inputs (BFS levels,
// MIS flags) come from the fault-free construction so every thread
// count sees identical inputs.
struct NamedScenario {
  const char* name;
  Scenario fn;
};

std::vector<NamedScenario> all_scenarios(const Graph& g) {
  const auto ideal = mcds::dist::distributed_waf_cds(g);
  const auto level = ideal.tree.level;
  const auto parent = ideal.tree.parent;
  const auto in_mis = ideal.mis.in_mis;
  const NodeId leader = ideal.leader;
  return {
      {"leader",
       [](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::elect_leader(gg, cfg);
         cap.stats = r.stats;
         cap.result = std::to_string(r.leader) + '/' +
                      std::to_string(r.complete);
       }},
      {"bfs",
       [leader](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::build_bfs_tree(gg, leader, cfg);
         cap.stats = r.stats;
         cap.result = join_ids(r.parent) + '|' + join_ids(r.level);
       }},
      {"mis",
       [level](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::elect_mis(gg, level, cfg);
         cap.stats = r.stats;
         cap.result = join_ids(r.mis);
       }},
      {"connector",
       [leader, parent, in_mis](const Graph& gg, RunConfig& cfg,
                                Capture& cap) {
         const auto r =
             mcds::dist::select_connectors(gg, leader, parent, in_mis, cfg);
         cap.stats = r.stats;
         cap.result = join_ids(r.cds) + '|' + std::to_string(r.s);
       }},
      {"greedy",
       [](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::distributed_greedy_cds(gg, cfg);
         cap.stats = r.total;
         cap.result =
             join_ids(r.cds) + '|' + std::to_string(r.epochs);
       }},
      {"alzoubi",
       [](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::distributed_alzoubi_cds(gg, cfg);
         cap.stats = r.total;
         cap.result = join_ids(r.cds);
       }},
      {"waf_cds",
       [](const Graph& gg, RunConfig& cfg, Capture& cap) {
         const auto r = mcds::dist::distributed_waf_cds(gg, cfg);
         cap.stats = r.total;
         cap.result = join_ids(r.cds) + '|' + std::to_string(r.complete);
       }},
      // Driven through FaultHarness directly so FaultStats (a Runtime
      // accessor the convenience entry points do not surface) is
      // captured too.
      {"detector",
       [](const Graph& gg, RunConfig& cfg, Capture& cap) {
         mcds::dist::FailureDetectorParams params;
         params.rounds = 40;
         mcds::dist::FaultHarness h(gg, cfg, 0, "detector");
         mcds::dist::FailureDetector det(h.net(), params, cfg.obs);
         cap.stats = h.run(det);
         cap.faults = h.runtime().faults();
         std::ostringstream os;
         for (NodeId v = 0; v < gg.num_nodes(); ++v)
           os << join_ids(det.suspects_of(v)) << ';';
         cap.result = os.str();
       }},
  };
}

FaultPlan lossy_plan(std::size_t n, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.link.drop = 0.06;
  plan.link.duplicate = 0.04;
  plan.link.max_delay = 2;
  plan.schedule.push_back({.round = 2, .node = static_cast<NodeId>(n / 3),
                           .up = false});
  plan.schedule.push_back({.round = 11, .node = static_cast<NodeId>(n / 3),
                           .up = true});
  std::vector<NodeId> half;
  for (NodeId v = 0; v < static_cast<NodeId>(n / 2); ++v) half.push_back(v);
  plan.partitions.push_back({.round = 5, .groups = {half}});
  plan.partitions.push_back({.round = 13, .groups = {}});
  return plan;
}

void run_grid(const FaultPlan& plan, bool reliable) {
  const Graph g = par_udg(17, 40);
  for (const auto& [name, fn] : all_scenarios(g)) {
    const Capture serial = run_scenario(g, fn, plan, reliable, nullptr);
    for (const std::size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const Capture par = run_scenario(g, fn, plan, reliable, &pool);
      expect_identical(serial, par,
                       std::string(name) + " @" + std::to_string(threads) +
                           " threads");
    }
  }
}

TEST(ParDistDeterminism, FaultFreeMatchesSerialAtEveryThreadCount) {
  run_grid(FaultPlan{}, /*reliable=*/false);
}

TEST(ParDistDeterminism, SeededFaultsMatchSerialAtEveryThreadCount) {
  run_grid(lossy_plan(40, 0xfeedULL), /*reliable=*/false);
}

TEST(ParDistDeterminism, ReliableLinkMatchesSerialAtEveryThreadCount) {
  run_grid(lossy_plan(40, 0xbeefULL), /*reliable=*/true);
}

// Shard-boundary stress: odd grains (forcing nodes split mid-shard) and
// a worker count that does not divide the node count must not change
// the trace.
TEST(ParDistDeterminism, OddGrainsAndThreadCounts) {
  const Graph g = par_udg(23, 31);
  const auto scenarios = all_scenarios(g);
  const auto& waf = scenarios[6];
  ASSERT_STREQ(waf.name, "waf_cds");
  const FaultPlan plan = lossy_plan(31, 0x5eedULL);
  const Capture serial = run_scenario(g, waf.fn, plan, false, nullptr);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}}) {
    ThreadPool pool(3);
    Capture cap;
    mcds::obs::MetricsRegistry reg;
    mcds::obs::CausalTracer tracer;
    RunConfig cfg;
    cfg.plan = plan;
    cfg.max_rounds = 4000;
    cfg.trace = &cap.trace;
    cfg.obs.metrics = &reg;
    cfg.obs.causal = &tracer;
    cfg.pool = &pool;
    cfg.shard_grain = grain;
    waf.fn(g, cfg, cap);
    std::ostringstream ms;
    reg.write_json(ms);
    cap.metrics = ms.str();
    expect_identical(serial, cap, "waf_cds grain=" + std::to_string(grain));
  }
}

// The fast paths of a fault-free run — stepping only the nodes with
// mail and carrying each broadcast as one record — must be invisible.
// The reference is the same run under a plan whose only entry recovers
// a node that is already up: it injects nothing but makes the run
// faulty, so every live node steps and every copy is routed on its own.
// No causal tracer is attached, since one turns broadcast records off.
FaultPlan noop_plan() {
  FaultPlan plan;
  plan.schedule.push_back({.round = 1, .node = 0, .up = true});
  return plan;
}

Capture run_untraced(const Graph& g, const Scenario& fn, const FaultPlan& plan,
                     ThreadPool* pool) {
  Capture cap;
  mcds::obs::MetricsRegistry reg;
  RunConfig cfg;
  cfg.plan = plan;
  cfg.max_rounds = 4000;
  cfg.trace = &cap.trace;
  cfg.obs.metrics = &reg;
  cfg.pool = pool;
  cfg.shard_grain = 3;  // several shards even on these small graphs
  fn(g, cfg, cap);
  for (const auto& [name, c] : reg.counters()) {
    if (name.ends_with(".steps")) cap.steps += c.value();
  }
  // The step counters differ by design; every other metric must not.
  std::ostringstream ms;
  reg.write_json(ms);
  static const std::regex kSteps(R"(("[^"]*\.steps": )[0-9]+)");
  cap.metrics = std::regex_replace(ms.str(), kSteps, "$1_");
  return cap;
}

TEST(ParDistFastPaths, FaultFreeRunsMatchTheirNoOpPlanTwins) {
  for (const auto& [seed, nodes] :
       {std::pair<std::uint64_t, std::size_t>{17, 40}, {23, 31}, {29, 24},
        {31, 30}}) {
    const Graph g = par_udg(seed, nodes);
    for (const auto& [name, fn] : all_scenarios(g)) {
      const std::string_view scenario = name;
      const std::string what =
          std::string(name) + " on seed " + std::to_string(seed);
      const Capture general = run_untraced(g, fn, noop_plan(), nullptr);
      ASSERT_FALSE(general.trace.empty()) << what;
      const Capture fast = run_untraced(g, fn, FaultPlan{}, nullptr);
      expect_identical(general, fast, what + " serial");
      // The connector phase and the failure detector are round-indexed
      // (they still broadcast as records); every other scenario has a
      // mail-driven phase that skips nodes without mail.
      if (scenario == "connector" || scenario == "detector") {
        EXPECT_EQ(fast.steps, general.steps) << what;
      } else {
        EXPECT_LT(fast.steps, general.steps) << what;
      }
      for (const std::size_t threads : kThreadCounts) {
        ThreadPool pool(threads);
        const std::string at = what + " @" + std::to_string(threads);
        const Capture par = run_untraced(g, fn, FaultPlan{}, &pool);
        expect_identical(general, par, at + " threads");
        EXPECT_EQ(par.steps, fast.steps) << at;
        expect_identical(general, run_untraced(g, fn, noop_plan(), &pool),
                         at + " threads, no-op plan");
      }
    }
  }
}

// A protocol that never quiesces, to trip the round guard.
class ChattyProtocol final : public mcds::dist::Protocol {
 public:
  explicit ChattyProtocol(mcds::dist::Transport& net) : net_(&net) {}
  void start(NodeId self) override {
    for (const NodeId w : net_->topology().neighbors(self))
      net_->send(self, w, {.type = 1});
  }
  void step(NodeId self,
            std::span<const mcds::dist::Message> inbox) override {
    for (const auto& m : inbox) net_->send(self, m.from, {.type = 1});
  }
  [[nodiscard]] bool idle() const override { return false; }

 private:
  mcds::dist::Transport* net_;
};

// RoundLimitError diagnostics — rounds executed, in-flight breakdown,
// non-quiescent node list, trace tail — must be identical however many
// workers stepped the rounds.
TEST(ParDistDeterminism, RoundLimitDiagnosticsAreThreadCountInvariant) {
  const Graph g = par_udg(29, 24);
  const auto what_at = [&](ThreadPool* pool) -> std::string {
    mcds::dist::Runtime rt(g);
    rt.parallelize(pool);
    ChattyProtocol p(rt);
    try {
      (void)rt.run(p, /*max_rounds=*/25);
    } catch (const mcds::dist::RoundLimitError& e) {
      return e.what();
    }
    ADD_FAILURE() << "round guard did not trip";
    return {};
  };
  const std::string serial = what_at(nullptr);
  ThreadPool one(1);
  ThreadPool eight(8);
  EXPECT_EQ(serial, what_at(&one));
  EXPECT_EQ(serial, what_at(&eight));
  EXPECT_NE(serial.find("round limit"), std::string::npos) << serial;
}

// The serial fast path and the pool path share the recycled inbox
// arena; back-to-back runs on one Runtime must not leak state across
// executions (the arena is epoch-stamped, not cleared).
TEST(ParDistDeterminism, ArenaRecyclingIsInvisibleAcrossRuns) {
  const Graph g = par_udg(31, 30);
  ThreadPool pool(4);
  std::vector<TraceEvent> first, second;
  for (std::vector<TraceEvent>* sink : {&first, &second}) {
    RunConfig cfg;
    cfg.trace = sink;
    cfg.pool = &pool;
    (void)mcds::dist::distributed_waf_cds(g, cfg);
  }
  EXPECT_EQ(first, second);
}

}  // namespace
