#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
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
#include "udg/instance.hpp"

// Golden executions of the round loop. Every protocol runs on one fixed
// graph under three plans (fault-free, seeded channel faults with a
// crash and a partition, and the same through ReliableLink) with the
// causal tracer and metrics attached; the delivered-message trace, the
// cost counters, the protocol's outputs and the metric export must
// reproduce digests recorded from a known-good build. The fast-path
// suite then checks that a fault-free run's shortcuts (stepping only
// nodes with mail, broadcast records) are invisible next to the general
// path.

namespace {

using mcds::dist::FaultPlan;
using mcds::dist::FaultStats;
using mcds::dist::Graph;
using mcds::dist::NodeId;
using mcds::dist::RunConfig;
using mcds::dist::RunStats;
using mcds::dist::TraceEvent;

Graph golden_udg(std::uint64_t seed, std::size_t nodes) {
  mcds::udg::InstanceParams params;
  params.nodes = nodes;
  params.side = 6.0;
  params.radius = 1.7;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value()) << "graph seed " << seed;
  return inst->graph;
}

// Everything one execution produces.
struct Capture {
  std::vector<TraceEvent> trace;
  RunStats stats;
  FaultStats faults;
  std::string result;   ///< digest of the protocol's own outputs
  std::string metrics;  ///< sorted-JSON metric export
  std::size_t steps = 0;  ///< step() calls (run_untraced only)
};

// One protocol scenario: given a RunConfig, run and capture. The
// callback fills `stats`, `faults` and `result`; trace, obs sinks and
// the metric export are wired by the runner.
using Scenario = std::function<void(const Graph&, RunConfig&, Capture&)>;

std::string join_ids(const std::vector<NodeId>& ids) {
  std::ostringstream os;
  for (const NodeId v : ids) os << v << ',';
  return os.str();
}

// The eight protocols, each as a scenario. Phase inputs (BFS levels,
// MIS flags) come from the fault-free construction so every plan sees
// identical inputs.
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

// ---------------------------------------------------------------------
// Golden digests.

// FNV-1a (64-bit) over a byte stream, fed field by field so struct
// padding never enters the digest.
class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_integral_v<T>);
    const auto u = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) byte((u >> (8 * i)) & 0xff);
  }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<TraceEvent>& trace) {
  Fnv1a h;
  for (const TraceEvent& e : trace) {
    h.add(e.round);
    h.add(e.from);
    h.add(e.to);
    h.add(e.type);
    h.add(e.a);
    h.add(e.b);
    h.add(e.link);
    h.add(e.seq);
  }
  return h.value();
}

std::uint64_t digest(std::string_view s) {
  Fnv1a h;
  h.add(s);
  return h.value();
}

// One recorded execution: the trace digest, the cost counters, the
// runtime's fault accounting, and digests of the protocol's outputs and
// of the metric export (which also carries every phase's fault.*
// counters).
struct Golden {
  const char* scenario;
  std::uint64_t trace;
  std::size_t rounds;
  std::size_t messages;
  std::size_t critical_path;
  FaultStats faults;
  std::uint64_t result;
  std::uint64_t metrics;
};

Golden observe(const char* scenario, const Capture& cap) {
  return {scenario,
          digest(cap.trace),
          cap.stats.rounds,
          cap.stats.messages,
          cap.stats.critical_path,
          cap.faults,
          digest(cap.result),
          digest(cap.metrics)};
}

std::string format(const FaultStats& f) {
  std::ostringstream os;
  os << '{' << f.dropped << ", " << f.duplicated << ", " << f.delayed << ", "
     << f.crash_discarded << ", " << f.suppressed << ", "
     << f.partition_dropped << '}';
  return os.str();
}

// A row printed as the initializer it is stored as, so a mismatch shows
// the whole observed row in source form.
std::string format(const Golden& r) {
  std::ostringstream os;
  os << "{\"" << r.scenario << "\", 0x" << std::hex << r.trace << std::dec
     << ", " << r.rounds << ", " << r.messages << ", " << r.critical_path
     << ",\n " << format(r.faults) << ", 0x" << std::hex << r.result << ", 0x"
     << r.metrics << "},";
  return os.str();
}

Capture run_traced(const Graph& g, const Scenario& fn, const FaultPlan& plan,
                   bool reliable) {
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
  fn(g, cfg, cap);
  std::ostringstream ms;
  reg.write_json(ms);
  cap.metrics = ms.str();
  return cap;
}

struct GoldenPlan {
  const char* name;
  FaultPlan plan;
  bool reliable;
  std::vector<Golden> rows;  ///< one per scenario, in scenario order
};

TEST(DistGolden, SerialRunsReproduceRecordedDigests) {
  const Graph g = golden_udg(17, 40);
  const std::vector<GoldenPlan> plans = {
      {"fault-free", FaultPlan{}, false, {
          {"leader", 0x769b6343b4d3fd8f, 5, 788, 5,
           {0, 0, 0, 0, 0, 0}, 0x4e15d9181d07e3c3, 0x1861605a1fc34b7b},
          {"bfs", 0x59b71c1ce4c3c161, 5, 288, 5,
           {0, 0, 0, 0, 0, 0}, 0x9407ba424f6b402a, 0x3662086de54929b7},
          {"mis", 0x4aaa54a32d4db843, 8, 288, 8,
           {0, 0, 0, 0, 0, 0}, 0x6776f373ee57a3f0, 0x8a672fcb65e9b568},
          {"connector", 0x26d06506be978359, 5, 76, 3,
           {0, 0, 0, 0, 0, 0}, 0x7f2f06651ed90a88, 0xc986a1eddc06fe33},
          {"greedy", 0x91f42ed2ae463d3f, 57, 5787, 57,
           {0, 0, 0, 0, 0, 0}, 0x995028eee5241ecd, 0x4f9c5916cec06ab0},
          {"alzoubi", 0xd2ddfffdd9818fcb, 9, 1072, 9,
           {0, 0, 0, 0, 0, 0}, 0x8c3ab7d02e64e7b8, 0x959a925a8360838d},
          {"waf_cds", 0xe5ea703b36083e99, 23, 1440, 21,
           {0, 0, 0, 0, 0, 0}, 0xaa5002853c193404, 0x472c6c9d1f4a781},
          {"detector", 0x7905e70c8dc1d925, 40, 11520, 40,
           {0, 0, 0, 0, 0, 0}, 0xc03211af63b6119d, 0x33ff1cec7f34d165},
      }},
      {"lossy 0xfeed", lossy_plan(40, 0xfeedULL), false, {
          {"leader", 0xd40fee86c0e769d7, 15, 696, 8,
           {0, 0, 0, 0, 0, 0}, 0x4e15d8181d07e210, 0xa1e94362be2f8e09},
          {"bfs", 0x867a22f305b7b87f, 13, 176, 9,
           {0, 0, 0, 0, 0, 0}, 0x15e13db444a4f4db, 0x7af8f8012bd93828},
          {"mis", 0xfa73900d4e932e72, 12, 125, 7,
           {0, 0, 0, 0, 0, 0}, 0x575be63582cc8531, 0xc0cdd3fa2b506477},
          {"connector", 0xe6127e51ed69054f, 8, 38, 3,
           {0, 0, 0, 0, 0, 0}, 0x8a463d6643cb93bf, 0xa764203bac8e62a5},
          {"greedy", 0x1ceba731795e7000, 79, 2249, 44,
           {0, 0, 0, 0, 0, 0}, 0xcdf2eae24da79623, 0xa806ac23af3e43c},
          {"alzoubi", 0x1d54179be6ee28b9, 17, 303, 10,
           {0, 0, 0, 0, 0, 0}, 0x311b8a7f15fdf2e2, 0xf6704d5f1df0494c},
          {"waf_cds", 0xac9d78483aadccaa, 50, 1280, 27,
           {0, 0, 0, 0, 0, 0}, 0x368a9d5874fcab47, 0x998fa1cee796c25c},
          {"detector", 0x4fa73bc4ce959b3a, 42, 9722, 40,
           {551, 352, 6685, 7, 36, 1520}, 0xc03211af63b6119d, 0x2de957843055f60a},
      }},
      {"reliable lossy 0xbeef", lossy_plan(40, 0xbeefULL), true, {
          {"leader", 0x10d609839287a3db, 46, 2709, 15,
           {0, 0, 0, 0, 0, 0}, 0x4e15d9181d07e3c3, 0x787abfd58baf848a},
          {"bfs", 0xbe587184b663df4d, 37, 916, 13,
           {0, 0, 0, 0, 0, 0}, 0x8ac61a1d550117ba, 0xd1d259afbaa42e31},
          {"mis", 0x20cccb8c991313e6, 41, 978, 13,
           {0, 0, 0, 0, 0, 0}, 0x6776f373ee57a3f0, 0x213b307bb8103a7c},
          {"connector", 0x254c6937df492401, 141, 276, 6,
           {0, 0, 0, 0, 0, 0}, 0x7f2f06651ed90a88, 0x599442e04c99ef6a},
          {"greedy", 0x2c814eda1632f2d4, 722, 19666, 127,
           {0, 0, 0, 0, 0, 0}, 0x995028eee5241ecd, 0x3a7c57412dd1553b},
          {"alzoubi", 0x5426303241fca6ef, 69, 3866, 24,
           {0, 0, 0, 0, 0, 0}, 0x5e8f7624a4f6a0c0, 0x65bf6b615dc0c93c},
          {"waf_cds", 0x86c8b687f7a8e5fc, 230, 5131, 49,
           {0, 0, 0, 0, 0, 0}, 0xf27486bad3058fb2, 0x79b687692b5aa088},
          {"detector", 0x9bb432b5d1061b6e, 60, 40049, 47,
           {2474, 1590, 27375, 9, 82, 3736}, 0xc03211af63b6119d, 0x59a2cdc3051b398f},
      }},
  };
  const auto scenarios = all_scenarios(g);
  for (const GoldenPlan& gp : plans) {
    ASSERT_EQ(gp.rows.size(), scenarios.size()) << gp.name;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto& [name, fn] = scenarios[i];
      const Capture cap = run_traced(g, fn, gp.plan, gp.reliable);
      ASSERT_FALSE(cap.trace.empty()) << gp.name << ' ' << name;
      EXPECT_EQ(format(observe(name, cap)), format(gp.rows[i])) << gp.name;
    }
  }
}

// ---------------------------------------------------------------------
// Fast paths.

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

void expect_identical(const Capture& a, const Capture& b,
                      const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what << ": trace diverged";
  EXPECT_EQ(a.stats.rounds, b.stats.rounds) << what;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << what;
  EXPECT_EQ(a.stats.critical_path, b.stats.critical_path) << what;
  EXPECT_EQ(a.stats.by_type, b.stats.by_type) << what;
  EXPECT_EQ(a.stats.per_round, b.stats.per_round) << what;
  EXPECT_EQ(format(a.faults), format(b.faults)) << what;
  EXPECT_EQ(a.result, b.result) << what << ": protocol output";
  EXPECT_EQ(a.metrics, b.metrics) << what << ": metric export";
}

Capture run_untraced(const Graph& g, const Scenario& fn,
                     const FaultPlan& plan) {
  Capture cap;
  mcds::obs::MetricsRegistry reg;
  RunConfig cfg;
  cfg.plan = plan;
  cfg.max_rounds = 4000;
  cfg.trace = &cap.trace;
  cfg.obs.metrics = &reg;
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

TEST(DistFastPaths, FaultFreeRunsMatchTheirNoOpPlanTwins) {
  for (const auto& [seed, nodes] :
       {std::pair<std::uint64_t, std::size_t>{17, 40}, {23, 31}, {29, 24},
        {31, 30}}) {
    const Graph g = golden_udg(seed, nodes);
    for (const auto& [name, fn] : all_scenarios(g)) {
      const std::string_view scenario = name;
      const std::string what =
          std::string(name) + " on seed " + std::to_string(seed);
      const Capture general = run_untraced(g, fn, noop_plan());
      ASSERT_FALSE(general.trace.empty()) << what;
      const Capture fast = run_untraced(g, fn, FaultPlan{});
      expect_identical(general, fast, what);
      // The connector phase and the failure detector are round-indexed
      // (they still broadcast as records); every other scenario has a
      // mail-driven phase that skips nodes without mail.
      if (scenario == "connector" || scenario == "detector") {
        EXPECT_EQ(fast.steps, general.steps) << what;
      } else {
        EXPECT_LT(fast.steps, general.steps) << what;
      }
    }
  }
}

}  // namespace
