// Golden verdicts of every backbone check. The validate and kmcds suites
// assert verdicts on hand-built graphs; these digests pin the verdict
// *and its witnesses* of every check entry point over a seeded corpus,
// recorded from a known-good build:
//
//  * 400 uniform fields, n from 20 to 420 and side from 0.4·√n to
//    1.6·√n, so many of them split into several topology components;
//  * on each field: the empty set, four random subsets in shuffled
//    order, the core::repair_cds backbone plus a thinned and a shuffled
//    copy, and on connected fields the kmcds (1,2), (2,1) and (2,2)
//    backbones and thinned copies;
//  * every input through check_cds (serial and on a 4-worker pool),
//    check_cds_components, is_cds (both overloads), is_dominating_set,
//    check_kmcds and check_kmcds_components at (1,1), (1,2), (2,1),
//    (2,2) and (1,3), and the two single-crash survivability predicates;
//  * survive_fault_plan's (1,1) and (2,2) reports on 25-event crash
//    schedules over the connected fields.
//
// A change that moves one of these constants changed a verdict or a
// witness and must say so.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/kmcds.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "dist/fault.hpp"
#include "dist/survivability.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "par/thread_pool.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"

namespace {

using mcds::core::CdsCheck;
using mcds::core::CdsDefect;
using mcds::core::KmCheck;
using mcds::core::KmDefect;
using mcds::core::KmParams;
using mcds::graph::Graph;
using mcds::graph::NodeId;

// FNV-1a (64-bit), fed value by value.
class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    const auto u = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) byte((u >> (8 * i)) & 0xff);
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// One family of checks: how many verdicts it gave, how many said ok, and
// a digest of every verdict field in order.
struct VerdictRow {
  const char* name;
  std::size_t checks;
  std::size_t ok;
  std::uint64_t digest;

  bool operator==(const VerdictRow&) const = default;
};

std::string format(const VerdictRow& r) {
  std::ostringstream os;
  os << "{\"" << r.name << "\", " << r.checks << ", " << r.ok << ", 0x"
     << std::hex << r.digest << "},";
  return os.str();
}

class Family {
 public:
  explicit Family(const char* name) : name_(name) {}

  void add(const CdsCheck& c) {
    count(c.ok);
    h_.add(c.defect);
    h_.add(c.witness);
    h_.add(c.witness2);
  }
  void add(const KmCheck& c) {
    count(c.ok);
    h_.add(c.defect);
    h_.add(c.witness);
    h_.add(c.witness2);
    h_.add(c.observed);
    h_.add(c.required);
  }
  void add(bool ok) { count(ok); }
  void add(const mcds::dist::SurvivabilityReport& r) {
    count(r.first_domination_loss == 0 && r.first_disconnection == 0);
    h_.add(r.backbone_size);
    h_.add(r.events);
    h_.add(r.first_domination_loss);
    h_.add(r.first_disconnection);
    h_.add(r.min_coverage);
    h_.add(r.heal_passes);
    h_.add(r.heal_added);
  }

  [[nodiscard]] VerdictRow row() const {
    return {name_, checks_, ok_, h_.value()};
  }

 private:
  void count(bool ok) {
    ++checks_;
    ok_ += ok ? 1 : 0;
    h_.add(ok);
  }

  const char* name_;
  std::size_t checks_ = 0;
  std::size_t ok_ = 0;
  Fnv1a h_;
};

void expect_rows(const std::vector<VerdictRow>& got,
                 const std::vector<VerdictRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "observed:\n" << format(got[i]);
  }
}

constexpr std::uint64_t kFields = 400;

struct Field {
  Graph g;
  bool connected = false;
};

Field field(std::uint64_t seed) {
  mcds::sim::Rng rng(seed);
  const std::size_t n = 20 + rng.uniform_int(401);
  const double side =
      rng.uniform(0.4, 1.6) * std::sqrt(static_cast<double>(n));
  const auto points = mcds::udg::deploy_uniform_square(n, side, rng);
  Field f{mcds::udg::build_udg(points)};
  f.connected = mcds::graph::is_connected(f.g);
  return f;
}

// Every third member dropped.
std::vector<NodeId> thinned(const std::vector<NodeId>& set) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i % 3 != 1) out.push_back(set[i]);
  }
  return out;
}

const KmParams kBackboneParams[] = {{1, 2}, {2, 1}, {2, 2}};

std::vector<std::vector<NodeId>> inputs(const Field& f, mcds::sim::Rng& rng) {
  const std::size_t n = f.g.num_nodes();
  std::vector<std::vector<NodeId>> sets(1);  // the empty set
  for (int s = 0; s < 4; ++s) {
    const double p = rng.uniform(0.05, 0.8);
    std::vector<NodeId> set;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.uniform01() < p) set.push_back(v);
    }
    rng.shuffle(set);
    sets.push_back(std::move(set));
  }
  const std::vector<NodeId> repaired = mcds::core::repair_cds(f.g, {}).cds;
  std::vector<NodeId> shuffled = repaired;
  rng.shuffle(shuffled);
  sets.push_back(repaired);
  sets.push_back(thinned(repaired));
  sets.push_back(std::move(shuffled));
  if (f.connected) {
    for (const KmParams params : kBackboneParams) {
      const auto backbone = mcds::core::kmcds(f.g, params).backbone;
      sets.push_back(backbone);
      sets.push_back(thinned(backbone));
    }
  }
  return sets;
}

// How often each defect class showed up, per entry point, split by
// whether the field was disconnected (a forest).
using DefectTally = std::map<std::string, std::size_t>;

std::string tally_key(const char* check, int defect, bool forest) {
  return std::string(check) + '/' + std::to_string(defect) +
         (forest ? "/forest" : "");
}

std::size_t seen(const DefectTally& tally, const char* check, int defect,
                 bool forest) {
  const auto it = tally.find(tally_key(check, defect, forest));
  return it == tally.end() ? 0 : it->second;
}

TEST(CheckGolden, SeededVerdicts) {
  const KmParams km_params[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 3}};
  mcds::par::ThreadPool pool(4);
  Family cds("check_cds");
  Family cds_pooled("check_cds pooled");
  Family cds_components("check_cds_components");
  Family predicates("is_cds, is_dominating_set");
  Family km("check_kmcds");
  Family km_components("check_kmcds_components");
  Family single_crash("single-crash survivability");
  DefectTally tally;
  std::size_t forest_fields = 0;

  for (std::uint64_t seed = 1; seed <= kFields; ++seed) {
    const Field f = field(seed);
    forest_fields += f.connected ? 0 : 1;
    mcds::sim::Rng rng(seed * 7919 + 3);
    for (const auto& set : inputs(f, rng)) {
      const Graph& g = f.g;
      const CdsCheck serial = mcds::core::check_cds(g, set);
      cds.add(serial);
      cds_pooled.add(mcds::core::check_cds(g, set, pool));
      const CdsCheck forest = mcds::core::check_cds_components(g, set);
      cds_components.add(forest);
      ++tally[tally_key("check_cds", static_cast<int>(serial.defect),
                        !f.connected)];
      ++tally[tally_key("check_cds_components",
                        static_cast<int>(forest.defect), !f.connected)];
      predicates.add(mcds::core::is_cds(g, set));
      predicates.add(mcds::core::is_cds(g, set, pool));
      predicates.add(mcds::core::is_dominating_set(g, set));
      for (const KmParams params : km_params) {
        const KmCheck whole = mcds::core::check_kmcds(g, set, params);
        const KmCheck split =
            mcds::core::check_kmcds_components(g, set, params);
        km.add(whole);
        km_components.add(split);
        ++tally[tally_key("check_kmcds", static_cast<int>(whole.defect),
                          !f.connected)];
        ++tally[tally_key("check_kmcds_components",
                          static_cast<int>(split.defect), !f.connected)];
      }
      single_crash.add(
          mcds::dist::dominates_after_any_single_member_crash(g, set));
      single_crash.add(
          mcds::dist::connected_after_any_single_member_crash(g, set));
    }
  }

  const std::vector<VerdictRow> want = {
      {"check_cds", 3650, 446, 0xe2f6d39eb392e180},
      {"check_cds pooled", 3650, 446, 0xe2f6d39eb392e180},
      {"check_cds_components", 3650, 1098, 0xf732754c8a25354b},
      {"is_cds, is_dominating_set", 10950, 2114, 0x6c84a06b1deaa727},
      {"check_kmcds", 18250, 954, 0x4600dae56aa610e2},
      {"check_kmcds_components", 18250, 1675, 0x461251f443e04d94},
      {"single-crash survivability", 7300, 1342, 0xdda3898ce9bc6dff},
  };
  expect_rows({cds.row(), cds_pooled.row(), cds_components.row(),
               predicates.row(), km.row(), km_components.row(),
               single_crash.row()},
              want);

  // The corpus must reach every defect class of every entry point. The
  // whole-graph checks can only pass, or find an avoidable cut, on a
  // connected field; the forest checks must reach every class on both.
  EXPECT_GE(forest_fields, 100u);
  const auto cds_defect = [](CdsDefect d) { return static_cast<int>(d); };
  const auto km_defect = [](KmDefect d) { return static_cast<int>(d); };
  for (const CdsDefect d : {CdsDefect::kNone, CdsDefect::kEmpty,
                            CdsDefect::kUndominated,
                            CdsDefect::kDisconnected}) {
    EXPECT_GE(seen(tally, "check_cds", cds_defect(d), false), 1u)
        << "check_cds defect " << cds_defect(d);
  }
  for (const KmDefect d : {KmDefect::kNone, KmDefect::kEmpty,
                           KmDefect::kUnderCovered, KmDefect::kDisconnected,
                           KmDefect::kCutVertex}) {
    EXPECT_GE(seen(tally, "check_kmcds", km_defect(d), false), 1u)
        << "check_kmcds defect " << km_defect(d);
  }
  for (const bool forest : {false, true}) {
    for (const CdsDefect d : {CdsDefect::kNone, CdsDefect::kUndominated,
                              CdsDefect::kDisconnected}) {
      EXPECT_GE(seen(tally, "check_cds_components", cds_defect(d), forest),
                1u)
          << "check_cds_components defect " << cds_defect(d) << " forest "
          << forest;
    }
    for (const KmDefect d : {KmDefect::kNone, KmDefect::kUnderCovered,
                             KmDefect::kDisconnected, KmDefect::kCutVertex}) {
      EXPECT_GE(seen(tally, "check_kmcds_components", km_defect(d), forest),
                1u)
          << "check_kmcds_components defect " << km_defect(d) << " forest "
          << forest;
    }
  }
  // Both single-crash predicates must see passes and failures.
  const VerdictRow crash = single_crash.row();
  EXPECT_GE(crash.ok, 1u);
  EXPECT_GE(crash.checks - crash.ok, 1u);
}

// A 25-event schedule of crashes with an occasional recovery, never
// downing more than half the nodes.
mcds::dist::FaultPlan crash_plan(std::size_t n, mcds::sim::Rng& rng) {
  mcds::dist::FaultPlan plan;
  std::vector<NodeId> down;
  std::vector<bool> up(n, true);
  for (std::size_t e = 0; e < 25; ++e) {
    mcds::dist::CrashEvent event;
    event.round = e + 1;
    if (!down.empty() && (rng.uniform_int(5) == 0 || 2 * down.size() >= n)) {
      const std::size_t i = rng.uniform_int(down.size());
      event.node = down[i];
      event.up = true;
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.uniform_int(n));
      } while (!up[v]);
      event.node = v;
      down.push_back(v);
    }
    up[event.node] = event.up;
    plan.schedule.push_back(event);
  }
  return plan;
}

TEST(CheckGolden, FaultPlanReports) {
  Family reports("survive_fault_plan");
  std::size_t runs = 0;
  std::size_t disconnected = 0;
  std::size_t undominated = 0;
  for (std::uint64_t seed = 1; seed <= kFields; ++seed) {
    const Field f = field(seed);
    if (!f.connected) continue;
    mcds::sim::Rng rng(seed * 104729 + 11);
    const mcds::dist::FaultPlan plan = crash_plan(f.g.num_nodes(), rng);
    for (const KmParams params : {KmParams{1, 1}, KmParams{2, 2}}) {
      const auto r = mcds::dist::survive_fault_plan(
          f.g, {"golden", params, 0}, plan);
      reports.add(r);
      ++runs;
      disconnected += r.first_disconnection != 0 ? 1 : 0;
      undominated += r.first_domination_loss != 0 ? 1 : 0;
    }
  }
  expect_rows({reports.row()},
              {{"survive_fault_plan", 150, 44, 0xf61b989b9bc0e7b}});
  EXPECT_GE(disconnected, 1u);
  EXPECT_LT(disconnected, runs);
  EXPECT_GE(undominated, 1u);
}

// The witness-order rule on one split backbone: check_kmcds_components
// names the two fragments by their smallest members, the CDS checks by
// their first members in set order.
TEST(CheckGolden, SplitWitnessOrder) {
  // A path 0-1-2-3-4 and an edge 5-6; members {0, 1} and {3, 4} dominate
  // node 2 but do not touch.
  const Graph g =
      mcds::test::make_graph(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}});
  const std::vector<NodeId> set = {6, 4, 3, 1, 0};

  const CdsCheck forest = mcds::core::check_cds_components(g, set);
  EXPECT_EQ(forest.defect, CdsDefect::kDisconnected);
  EXPECT_EQ(forest.witness, 4u);
  EXPECT_EQ(forest.witness2, 1u);

  const KmCheck km = mcds::core::check_kmcds_components(g, set, {1, 1});
  EXPECT_EQ(km.defect, KmDefect::kDisconnected);
  EXPECT_EQ(km.witness, 0u);
  EXPECT_EQ(km.witness2, 3u);

  // On the whole graph, the first split is between 6 and the path.
  const CdsCheck whole = mcds::core::check_cds(g, set);
  EXPECT_EQ(whole.defect, CdsDefect::kDisconnected);
  EXPECT_EQ(whole.witness, 6u);
  EXPECT_EQ(whole.witness2, 4u);
  const KmCheck km_whole = mcds::core::check_kmcds(g, set, {1, 1});
  EXPECT_EQ(km_whole.defect, KmDefect::kDisconnected);
  EXPECT_EQ(km_whole.witness, 6u);
  EXPECT_EQ(km_whole.witness2, 4u);
}

}  // namespace
