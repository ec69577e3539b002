// Golden outputs of the two connectivity-repair paths. The dyn and
// repair suites assert validity only; these digests pin *which* valid
// backbone each path returns, recorded from a known-good build:
//
//  * core::LocalBackbone (through dyn::DynamicCds) after construction on
//    four seeded fields, and after two seeded churn streams run under a
//    tightened envelope so the connector rebuild fires mid-stream. The
//    sparse fields' arbitrary-maximal MIS leaves member fragments exactly
//    3 hops apart, so phase 2 stalls and the 3-hop patch runs; two fields
//    split into several topology components that each hold >= 2 MIS
//    members. Five longer streams in the shape of the `perfbench` churn
//    workload (jittered moves, crashes, revivals) pin every event's
//    report on supercritical, fragmented and rebuild-prone fields.
//  * core::repair_cds on jittered UDGs carrying a stale backbone, some
//    of them far enough apart that no single node merges two fragments
//    and the shortest-path fallback runs, one of them split by the
//    jitter into several components.
//  * dist::SelfHealingCds over seeded crash schedules: every heal
//    pass's action, counters and resulting backbone, including passes
//    on fragmented survivor graphs, one rebuild and one island-scoped
//    run ending in a reconcile.
//
// A change that moves one of these constants changed which backbone a
// repair returns and must say so.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/connector_engine.hpp"
#include "core/greedy_connect.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "dist/maintenance.hpp"
#include "dyn/dynamic_cds.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::dyn::DynamicCds;
using mcds::dyn::DynParams;
using mcds::geom::Vec2;
using mcds::graph::Graph;
using mcds::graph::NodeId;

// FNV-1a (64-bit), fed value by value.
class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_integral_v<T>);
    const auto u = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) byte((u >> (8 * i)) & 0xff);
  }
  void add(const std::vector<NodeId>& ids) {
    add(ids.size());
    for (const NodeId v : ids) add(v);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<NodeId>& ids) {
  Fnv1a h;
  h.add(ids);
  return h.value();
}

std::vector<Vec2> field(std::size_t nodes, double side, std::uint64_t seed) {
  mcds::sim::Rng rng(seed);
  return mcds::udg::deploy_uniform_square(nodes, side, rng);
}

// ---------------------------------------------------------------------
// LocalBackbone.

// One engine state: sizes, envelope rebuilds, and digests of the MIS,
// the backbone and (for streams) the per-event trajectory.
struct BackboneRow {
  const char* name;
  std::size_t mis;
  std::size_t cds;
  std::size_t rebuilds;
  std::uint64_t mis_digest;
  std::uint64_t cds_digest;
  std::uint64_t trajectory;

  bool operator==(const BackboneRow&) const = default;
};

std::string format(const BackboneRow& r) {
  std::ostringstream os;
  os << "{\"" << r.name << "\", " << r.mis << ", " << r.cds << ", "
     << r.rebuilds << ", 0x" << std::hex << r.mis_digest << ", 0x"
     << r.cds_digest << ", 0x" << r.trajectory << "},";
  return os.str();
}

BackboneRow observe(const char* name, const DynamicCds& e,
                    std::uint64_t trajectory) {
  return {name,
          e.mis_size(),
          e.cds_size(),
          e.rebuilds(),
          digest(e.mis()),
          digest(e.cds()),
          trajectory};
}

// Topology components holding >= 2 MIS members: each one runs its own
// connector phase.
std::size_t components_with_two_members(const DynamicCds& e) {
  const auto [label, count] = mcds::graph::connected_components(e.topology());
  std::vector<std::size_t> members(count, 0);
  for (const NodeId v : e.mis()) ++members[label[v]];
  std::size_t multi = 0;
  for (const std::size_t m : members) multi += m >= 2 ? 1 : 0;
  return multi;
}

// Patches the backbone's connector phase needed: a fresh engine over the
// same topology and MIS stalls at the same 3-hop gaps.
std::size_t stalls(const DynamicCds& e) {
  const Graph g = e.topology();
  mcds::core::ConnectorEngine engine(g, e.mis());
  std::size_t patches = 0;
  while (true) {
    while (engine.poll()) {
    }
    if (!engine.bridge_gap()) return patches;
    ++patches;
  }
}

struct FieldSpec {
  const char* name;
  std::size_t nodes;
  double side;
  std::uint64_t seed;
};

TEST(RepairGolden, LocalBackboneConstruction) {
  const FieldSpec specs[] = {
      {"sparse-200", 200, 11.2, 3},
      {"mid-400", 400, 12.5, 1},
      {"sparse-800", 800, 22.4, 1},
      {"dense-400", 400, 10.2, 1},
  };
  const BackboneRow want[] = {
      {"sparse-200", 60, 118, 0, 0xd3798586a8e8bfee, 0x1872ac5857c6c23, 0x0},
      {"mid-400", 82, 149, 0, 0x892b644e28c40344, 0x73ee961b14e20bea, 0x0},
      {"sparse-800", 227, 420, 0, 0x4631f76ceb8afdae, 0xc41ec6964a614466, 0x0},
      {"dense-400", 59, 100, 0, 0x24959d59dbd8621f, 0x76d39671c749a38b, 0x0},
  };
  std::size_t split_fields = 0;
  std::size_t most_stalls = 0;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const FieldSpec& s = specs[i];
    const DynamicCds e(field(s.nodes, s.side, s.seed));
    ASSERT_TRUE(e.check().ok) << s.name;
    const BackboneRow got = observe(s.name, e, 0);
    EXPECT_EQ(got, want[i]) << "observed:\n" << format(got);
    if (components_with_two_members(e) >= 2) ++split_fields;
    most_stalls = std::max(most_stalls, stalls(e));
  }
  EXPECT_GE(split_fields, 2u);
  EXPECT_GE(most_stalls, 5u);
}

struct StreamSpec {
  const char* name;
  std::size_t nodes;
  double side;
  std::uint64_t seed;
  double envelope_factor;  ///< below the default 4 so rebuilds fire
  int events;
};

TEST(RepairGolden, LocalBackboneAfterChurn) {
  const StreamSpec specs[] = {
      {"churn-150", 150, 9.0, 2, 2.5, 300},
      {"churn-250", 250, 11.0, 3, 2.0, 300},
  };
  const BackboneRow want[] = {
      {"churn-150", 38, 71, 3, 0xd56f10819e60c206, 0x598c548453c23d32,
       0x92dda27e23747da6},
      {"churn-250", 57, 112, 32, 0xc1b62342a7df081b, 0xc60dfd3fdf79a2e6,
       0xa717233f7ba73dfe},
  };
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const StreamSpec& s = specs[i];
    DynParams params;
    params.envelope_factor = s.envelope_factor;
    params.envelope_bias = 0;
    DynamicCds e(field(s.nodes, s.side, s.seed), params);
    mcds::sim::Rng rng(s.seed * 1000 + 7);
    Fnv1a trajectory;
    for (int step = 0; step < s.events; ++step) {
      const auto v = static_cast<NodeId>(rng.uniform_int(e.num_nodes()));
      const double roll = rng.uniform01();
      mcds::dyn::EventReport r;
      if (e.alive(v) && roll < 0.25) {
        r = e.erase(v);
      } else if (!e.alive(v)) {
        r = e.revive(v, {rng.uniform(0.0, s.side), rng.uniform(0.0, s.side)});
      } else {
        r = e.move(v, {rng.uniform(0.0, s.side), rng.uniform(0.0, s.side)});
      }
      trajectory.add(e.mis_size());
      trajectory.add(e.cds_size());
      trajectory.add(static_cast<int>(r.rebuilt));
    }
    ASSERT_TRUE(e.check().ok) << s.name;
    EXPECT_GE(e.rebuilds(), 1u) << s.name;
    const BackboneRow got = observe(s.name, e, trajectory.value());
    EXPECT_EQ(got, want[i]) << "observed:\n" << format(got);
  }
}

// Streams in the shape of the `perfbench` churn workload and
// `mcds_cli dynamic`: pick a node uniformly; revive a dead one at a
// uniform position; crash an alive one with p = 0.1, else move it by at
// most 0.5 per axis, clamped to the field.
struct JitterSpec {
  const char* name;
  std::size_t nodes;
  double density;  ///< side = density * sqrt(nodes)
  std::uint64_t seed;
  double envelope_factor;  ///< the default 4 unless rebuilds should fire
  std::size_t envelope_bias;
  std::size_t parent_scope;  ///< summed repair.scope before the early exit
};

// One jitter stream: final sizes, rebuilds and compactions, digests of
// the final MIS and backbone, and a digest of every event's report
// (repair.scope aside) with the sizes after it.
struct JitterRow {
  const char* name;
  std::size_t mis;
  std::size_t cds;
  std::size_t rebuilds;
  std::size_t compactions;
  std::uint64_t mis_digest;
  std::uint64_t cds_digest;
  std::uint64_t trajectory;

  bool operator==(const JitterRow&) const = default;
};

std::string format(const JitterRow& r, std::size_t scope) {
  std::ostringstream os;
  os << "{\"" << r.name << "\", " << r.mis << ", " << r.cds << ", "
     << r.rebuilds << ", " << r.compactions << ", 0x" << std::hex
     << r.mis_digest << ", 0x" << r.cds_digest << ", 0x" << r.trajectory
     << std::dec << "}, scope " << scope;
  return os.str();
}

// True when the event that turned the backbone \p before into e.cds()
// added exactly one connector pair, a 2-node bridge: two adjacent new
// connectors, each touching exactly one fragment of the backbone they
// joined, and not the same one. Two 1-node bridges never pass: the first
// of them joins its complete fragment to a backbone node outside it, so
// it touches two fragments.
bool added_two_node_bridge(const DynamicCds& e,
                           const std::vector<NodeId>& before) {
  std::vector<NodeId> fresh;
  std::set_difference(e.cds().begin(), e.cds().end(), before.begin(),
                      before.end(), std::back_inserter(fresh));
  const std::vector<NodeId> mis = e.mis();
  std::erase_if(fresh, [&](NodeId v) {
    return std::binary_search(mis.begin(), mis.end(), v);
  });
  if (fresh.size() != 2) return false;
  const Graph g = e.topology();
  if (!g.has_edge(fresh[0], fresh[1])) return false;
  std::vector<NodeId> rest;
  for (const NodeId v : e.cds()) {
    if (v != fresh[0] && v != fresh[1]) rest.push_back(v);
  }
  const auto [label, count] = mcds::graph::subset_components(g, rest);
  std::vector<std::uint32_t> fragment(g.num_nodes(), 0);
  for (std::size_t i = 0; i < rest.size(); ++i) fragment[rest[i]] = label[i] + 1;
  std::uint32_t touched[2] = {0, 0};
  for (std::size_t k = 0; k < 2; ++k) {
    for (const NodeId v : g.neighbors(fresh[k])) {
      if (fragment[v] == 0) continue;
      if (touched[k] != 0 && touched[k] != fragment[v]) return false;
      touched[k] = fragment[v];
    }
  }
  return touched[0] != 0 && touched[1] != 0 && touched[0] != touched[1];
}

TEST(RepairGolden, LocalBackboneJitterStreams) {
  constexpr int kEvents = 5000;
  const JitterSpec specs[] = {
      {"jitter-2000", 2000, 0.55, 11, 4.0, 12, 331151},
      {"jitter-5000", 5000, 0.55, 12, 4.0, 12, 542608},
      {"jitter-10000", 10000, 0.55, 13, 4.0, 12, 1028290},
      {"fragmented-3000", 3000, 0.85, 14, 4.0, 12, 109534},
      {"rebuild-2000", 2000, 0.55, 15, 2.2, 0, 354454},
  };
  const JitterRow want[] = {
      {"jitter-2000", 314, 943, 0, 10, 0x61d58b70985d0452, 0xff9643637c1647c5,
       0x67cd735e5a48301d},
      {"jitter-5000", 798, 1997, 0, 3, 0x8419d154a298a58d, 0x9eac919102a45bcf,
       0x8bdaf9bede6d5552},
      {"jitter-10000", 1589, 3544, 0, 1, 0xd9e05361ca30d351,
       0xd4a4d35448c930c8, 0xa6cf3f4c3720d38d},
      {"fragmented-3000", 905, 2334, 0, 6, 0x2804d1b1b02b76a7,
       0x558b94255dfc7e64, 0x8366a6967b9b3ff1},
      {"rebuild-2000", 324, 701, 5, 10, 0xa2e69a1c33b5d180, 0xb28e14070dcf6516,
       0x676310edd769a4d8},
  };
  std::size_t bridged = 0;
  std::size_t one_connector = 0;  // a lone connector is a 1-node bridge
  std::size_t two_node_bridges = 0;
  std::size_t islands = 0;
  std::size_t compactions = 0;
  std::size_t rebuilds = 0;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const JitterSpec& s = specs[i];
    const double side = s.density * std::sqrt(static_cast<double>(s.nodes));
    DynParams params;
    params.envelope_factor = s.envelope_factor;
    params.envelope_bias = s.envelope_bias;
    DynamicCds e(field(s.nodes, side, s.seed), params);
    mcds::sim::Rng rng(s.seed * 7717 + 3);
    const auto clamp = [side](double x) { return std::clamp(x, 0.0, side); };
    Fnv1a trajectory;
    std::size_t scope = 0;
    bool pair_seen = false;
    std::vector<NodeId> before;
    for (int step = 0; step < kEvents; ++step) {
      const auto v = static_cast<NodeId>(rng.uniform_int(e.num_nodes()));
      const bool was_alive = e.alive(v);
      const bool crashes = was_alive && rng.uniform01() < 0.1;
      const Vec2 here = e.position(v);
      const Vec2 to = was_alive ? Vec2{clamp(here.x + rng.uniform(-0.5, 0.5)),
                                       clamp(here.y + rng.uniform(-0.5, 0.5))}
                                : Vec2{rng.uniform(0.0, side),
                                       rng.uniform(0.0, side)};
      if (!pair_seen) before = e.cds();
      const mcds::dyn::EventReport r =
          !was_alive ? e.revive(v, to) : (crashes ? e.erase(v) : e.move(v, to));
      trajectory.add(r.edges_added);
      trajectory.add(r.edges_removed);
      trajectory.add(static_cast<int>(r.rebuilt));
      trajectory.add(static_cast<int>(r.compacted));
      trajectory.add(r.epoch);
      trajectory.add(r.repair.mis_added);
      trajectory.add(r.repair.mis_removed);
      trajectory.add(r.repair.connectors_added);
      trajectory.add(r.repair.backbone_removed);
      trajectory.add(r.repair.islands);
      trajectory.add(e.cds_size());
      trajectory.add(e.mis_size());
      scope += r.repair.scope;
      bridged += r.repair.connectors_added != 0 ? 1 : 0;
      one_connector += r.repair.connectors_added == 1 ? 1 : 0;
      islands += r.repair.islands;
      if (!pair_seen && !r.rebuilt && r.repair.connectors_added == 2 &&
          added_two_node_bridge(e, before)) {
        pair_seen = true;
        ++two_node_bridges;
      }
      if ((step + 1) % 1000 == 0) {
        ASSERT_TRUE(e.check().ok) << s.name;
      }
    }
    ASSERT_TRUE(e.check().ok) << s.name;
    compactions += e.compactions();
    rebuilds += e.rebuilds();
    const JitterRow got{s.name,
                        e.mis_size(),
                        e.cds_size(),
                        e.rebuilds(),
                        e.compactions(),
                        digest(e.mis()),
                        digest(e.cds()),
                        trajectory.value()};
    EXPECT_EQ(got, want[i]) << "observed:\n" << format(got, scope);
    // The early exit only skips searches that would change nothing, so
    // no stream explores more than before; on a supercritical field
    // every stream has such searches to skip.
    EXPECT_LE(scope, s.parent_scope) << format(got, scope);
    if (s.density < 0.8) {
      EXPECT_LT(scope, s.parent_scope) << format(got, scope);
    }
  }
  EXPECT_GE(bridged, 1u);
  EXPECT_GE(one_connector, 1u);
  EXPECT_GE(two_node_bridges, 1u);
  EXPECT_GE(islands, 1u);
  EXPECT_GE(compactions, 1u);
  EXPECT_GE(rebuilds, 1u);
}

// ---------------------------------------------------------------------
// core::repair.

// A jittered UDG with the pre-jitter greedy backbone, and a thinned copy
// (every other member plus one failed id) that leaves fragments too far
// apart for a single connector.
struct RepairInput {
  Graph g;
  std::vector<NodeId> old_cds;
  std::vector<NodeId> thinned;
};

RepairInput repair_input(std::size_t nodes, double side, std::uint64_t seed) {
  mcds::udg::InstanceParams params;
  params.nodes = nodes;
  params.side = side;
  const auto inst =
      mcds::udg::generate_largest_component_instance(params, seed);
  RepairInput in;
  in.old_cds = mcds::core::greedy_cds(inst.graph, 0).cds;
  mcds::sim::Rng rng(seed);
  auto moved = inst.points;
  for (Vec2& p : moved) {
    p.x += rng.uniform(-0.4, 0.4);
    p.y += rng.uniform(-0.4, 0.4);
  }
  in.g = mcds::udg::build_udg(moved);
  for (std::size_t i = 0; i < in.old_cds.size(); i += 2) {
    in.thinned.push_back(in.old_cds[i]);
  }
  in.thinned.push_back(static_cast<NodeId>(moved.size() + 3));
  return in;
}

struct RepairRow {
  const char* name;
  std::size_t kept;
  std::size_t added;
  std::size_t dropped;
  std::size_t size;
  std::uint64_t cds;

  bool operator==(const RepairRow&) const = default;
};

std::string format(const RepairRow& r) {
  std::ostringstream os;
  os << "{\"" << r.name << "\", " << r.kept << ", " << r.added << ", "
     << r.dropped << ", " << r.size << ", 0x" << std::hex << r.cds << "},";
  return os.str();
}

// True when the connector engine, seeded with the in-range \p members,
// stalls before each topology component holds one member component: a
// repair of that dominating set then takes the shortest-path fallback.
bool engine_stalls(const Graph& g, std::vector<NodeId> members) {
  std::erase_if(members, [&](NodeId v) { return v >= g.num_nodes(); });
  const std::size_t num_comps = mcds::graph::connected_components(g).second;
  mcds::core::ConnectorEngine engine(g, members);
  while (engine.components() > num_comps) {
    if (!engine.poll()) return true;
  }
  return false;
}

RepairRow observe(const char* name, const mcds::core::RepairResult& r) {
  return {name, r.kept, r.added, r.dropped, r.cds.size(), digest(r.cds)};
}

TEST(RepairGolden, CoreRepairEntryPoints) {
  using mcds::core::repair_cds;
  const RepairInput a = repair_input(120, 6.0, 1);
  const RepairInput b = repair_input(200, 9.0, 2);
  // Split by the jitter: repaired into a forest.
  const RepairInput c = repair_input(60, 6.0, 1);
  ASSERT_TRUE(mcds::graph::is_connected(a.g));
  ASSERT_TRUE(mcds::graph::is_connected(b.g));
  ASSERT_FALSE(mcds::graph::is_connected(c.g));
  EXPECT_TRUE(engine_stalls(a.g, a.thinned));
  EXPECT_TRUE(engine_stalls(b.g, b.old_cds));

  const std::vector<RepairRow> got = {
      observe("a repair", repair_cds(a.g, a.old_cds)),
      observe("a repair thinned", repair_cds(a.g, a.thinned)),
      observe("b repair", repair_cds(b.g, b.old_cds)),
      observe("b repair thinned", repair_cds(b.g, b.thinned)),
      observe("c repair", repair_cds(c.g, c.old_cds)),
      observe("c repair thinned", repair_cds(c.g, c.thinned)),
  };
  const std::vector<RepairRow> want = {
      {"a repair", 40, 9, 0, 49, 0x826bba5091e680da},
      {"a repair thinned", 20, 25, 1, 45, 0x5d7298af452d37a3},
      {"b repair", 84, 17, 0, 101, 0xd51dd924ee2b25b8},
      {"b repair thinned", 42, 49, 1, 91, 0xab9143bdb27b5256},
      {"c repair", 34, 7, 0, 41, 0x961d8daebb2f7425},
      {"c repair thinned", 17, 19, 1, 36, 0xd680fb58fae52a55},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "observed:\n" << format(got[i]);
  }
}

// ---------------------------------------------------------------------
// dist::SelfHealingCds.

using mcds::dist::HealAction;
using mcds::dist::HealReport;
using mcds::dist::SelfHealingCds;

// The heal passes of one scenario: how many passes took each action,
// how many of the reconnect and repair passes ran on a fragmented
// survivor graph, the final backbone size, and a digest of every pass's
// action, islands, kept, added, dropped, epoch and resulting backbone.
struct HealRow {
  const char* name;
  std::size_t intact;
  std::size_t reconnected;
  std::size_t repaired;
  std::size_t rebuilt;
  std::size_t split_reconnected;
  std::size_t split_repaired;
  std::size_t size;
  std::uint64_t trajectory;

  bool operator==(const HealRow&) const = default;
};

std::string format(const HealRow& r) {
  std::ostringstream os;
  os << "{\"" << r.name << "\", " << r.intact << ", " << r.reconnected << ", "
     << r.repaired << ", " << r.rebuilt << ", " << r.split_reconnected << ", "
     << r.split_repaired << ", " << r.size << ", 0x" << std::hex
     << r.trajectory << "},";
  return os.str();
}

// True when \p cds is a CDS of every component of the graph induced by
// the live nodes.
bool valid_forest(const Graph& g, const std::vector<bool>& up,
                  const std::vector<NodeId>& cds) {
  std::vector<NodeId> live;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (up[v]) live.push_back(v);
  }
  const auto sub = mcds::graph::induced_subgraph(g, live);
  std::vector<NodeId> to_sub(g.num_nodes(), mcds::graph::kNoNode);
  for (NodeId i = 0; i < sub.mapping.size(); ++i) to_sub[sub.mapping[i]] = i;
  std::vector<NodeId> mapped;
  for (const NodeId v : cds) {
    if (to_sub[v] == mcds::graph::kNoNode) return false;  // dead member
    mapped.push_back(to_sub[v]);
  }
  return mcds::core::check_cds_components(sub.graph, mapped).ok;
}

class HealRecorder {
 public:
  explicit HealRecorder(const char* name) { row_.name = name; }

  void record(const HealReport& r, const SelfHealingCds& healer) {
    switch (r.action) {
      case HealAction::kIntact:
        ++row_.intact;
        break;
      case HealAction::kReconnected:
        ++row_.reconnected;
        if (r.islands >= 2) ++row_.split_reconnected;
        break;
      case HealAction::kRepaired:
        ++row_.repaired;
        if (r.islands >= 2) ++row_.split_repaired;
        break;
      case HealAction::kRebuilt:
        ++row_.rebuilt;
        break;
      case HealAction::kUnhealable:
        break;
    }
    trajectory_.add(static_cast<int>(r.action));
    trajectory_.add(r.islands);
    trajectory_.add(r.kept);
    trajectory_.add(r.added);
    trajectory_.add(r.dropped);
    trajectory_.add(r.epoch);
    trajectory_.add(healer.cds());
    row_.size = healer.cds().size();
  }

  [[nodiscard]] HealRow row() const {
    HealRow out = row_;
    out.trajectory = trajectory_.value();
    return out;
  }

 private:
  HealRow row_{};
  Fnv1a trajectory_;
};

mcds::udg::UdgInstance heal_field(std::uint64_t seed) {
  mcds::udg::InstanceParams params;
  params.nodes = 150;
  params.side = 8.0;
  return mcds::udg::generate_largest_component_instance(params, seed);
}

TEST(RepairGolden, SelfHealingPasses) {
  std::vector<HealRow> got;

  // Seeded crash schedules: 40 crashes per field, two in three on a
  // current backbone member, one heal pass after each. The survivor
  // graph fragments as the crashes accumulate.
  const std::pair<const char*, std::uint64_t> schedules[] = {
      {"crash-1", 1}, {"crash-2", 2}, {"crash-3", 3}, {"crash-4", 4}};
  for (const auto& [name, seed] : schedules) {
    const auto inst = heal_field(seed);
    const Graph& g = inst.graph;
    SelfHealingCds healer(g, mcds::core::waf_cds(g).cds);
    std::vector<bool> up(g.num_nodes(), true);
    mcds::sim::Rng rng(seed * 7919 + 1);
    HealRecorder rec(name);
    for (int crash = 0; crash < 40; ++crash) {
      std::vector<NodeId> pool;
      if (rng.uniform_int(3) < 2) {
        for (const NodeId v : healer.cds()) {
          if (up[v]) pool.push_back(v);
        }
      }
      if (pool.empty()) {
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (up[v]) pool.push_back(v);
        }
      }
      up[pool[rng.uniform_int(pool.size())]] = false;
      const HealReport r = healer.on_churn(up);
      ASSERT_NE(r.action, HealAction::kUnhealable) << name;
      ASSERT_TRUE(valid_forest(g, up, healer.cds())) << name << ' ' << crash;
      rec.record(r, healer);
    }
    got.push_back(rec.row());
  }

  // One crash wave takes three of every four backbone members: less
  // than the rebuild fraction survives, so the pass re-runs the
  // distributed construction.
  {
    const auto inst = heal_field(5);
    const Graph& g = inst.graph;
    const std::vector<NodeId> initial = mcds::core::waf_cds(g).cds;
    SelfHealingCds healer(g, initial);
    std::vector<bool> up(g.num_nodes(), true);
    for (std::size_t i = 0; i < initial.size(); ++i) {
      if (i % 4 != 0) up[initial[i]] = false;
    }
    HealRecorder rec("massacre");
    const HealReport r = healer.on_churn(up);
    EXPECT_EQ(r.action, HealAction::kRebuilt);
    ASSERT_TRUE(valid_forest(g, up, healer.cds()));
    rec.record(r, healer);
    got.push_back(rec.row());
  }

  // Island-scoped passes and the reconcile at the heal, in the shape of
  // the partition-tolerance bench: the nodes split by id into two
  // halves, each half's replica heals its own island after every
  // backbone crash, and the master merges both views.
  {
    const auto inst = heal_field(6);
    const Graph& g = inst.graph;
    const std::size_t n = g.num_nodes();
    const std::vector<NodeId> initial = mcds::core::waf_cds(g).cds;
    SelfHealingCds master(g, initial);
    std::vector<std::vector<NodeId>> halves(2);
    for (NodeId v = 0; v < n; ++v) halves[v < n / 2 ? 0 : 1].push_back(v);
    std::vector<std::unique_ptr<SelfHealingCds>> replicas;
    for (const auto& half : halves) {
      replicas.push_back(std::make_unique<SelfHealingCds>(g, master.cds()));
      replicas.back()->set_island(half);
    }
    HealRecorder rec("island-reconcile");
    std::vector<bool> up(n, true);
    for (std::size_t c = 0; c < 5; ++c) {
      const NodeId victim =
          c % 2 == 0 ? initial[c] : initial[initial.size() - 1 - c];
      up[victim] = false;
      for (const auto& replica : replicas) {
        rec.record(replica->on_churn(up), *replica);
      }
    }
    std::vector<mcds::core::BackboneView> views;
    for (const auto& replica : replicas) views.push_back(replica->view());
    const HealReport r = master.reconcile(views, up);
    EXPECT_NE(r.action, HealAction::kUnhealable);
    ASSERT_TRUE(valid_forest(g, up, master.cds()));
    rec.record(r, master);
    got.push_back(rec.row());
  }

  const std::vector<HealRow> want = {
      {"crash-1", 23, 12, 5, 0, 9, 5, 58, 0xf1375c3241c3c66f},
      {"crash-2", 25, 13, 2, 0, 8, 1, 52, 0xd69e7e3e2382a1af},
      {"crash-3", 19, 17, 4, 0, 11, 1, 63, 0x5eff01fb6a1934c0},
      {"crash-4", 19, 16, 5, 0, 7, 3, 51, 0x173fc2669d8fb474},
      {"massacre", 0, 0, 0, 1, 0, 0, 51, 0x34ba730480f6e983},
      {"island-reconcile", 7, 1, 3, 0, 0, 3, 88, 0xd1df19944cfe669c},
  };
  ASSERT_EQ(got.size(), want.size());
  std::size_t split_reconnected = 0;
  std::size_t split_repaired = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "observed:\n" << format(got[i]);
    split_reconnected += got[i].split_reconnected;
    split_repaired += got[i].split_repaired;
  }
  // Both repair actions must run on fragmented survivor graphs.
  EXPECT_GE(split_reconnected, 5u);
  EXPECT_GE(split_repaired, 5u);
}

}  // namespace
