#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mis.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "dist/failure_detector.hpp"
#include "dist/fault.hpp"
#include "dist/fault_json.hpp"
#include "dist/maintenance.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "udg/instance.hpp"

/// \file test_dist_partition_chaos.cpp
/// The partition chaos fuzzer. Each scenario draws a random connected
/// UDG and a random FaultPlan mixing crashes, recoveries and scheduled
/// partition split/heal events, then replays the plan against the
/// partition-aware maintenance stack: islands run epoch-stamped
/// SelfHealingCds replicas on their local views, and every grouping
/// change reconciles them. After every event the harness asserts the
/// partition invariants on the *reachable* topology (live nodes, minus
/// cross-cut edges): every component is dominated by a connected local
/// backbone fragment, and each fragment is bounded against the
/// component's own MIS. A deliberately broken maintenance variant
/// (prune-only, never repairs) must be caught by the same invariants
/// and delta-debugged down to a tiny replayable plan — the shrunk repro
/// prints as JSON + seed and replays via `mcds_cli dist --fault-plan`.
/// Base seed and output directory come from CHAOS_FUZZ_SEED /
/// CHAOS_FUZZ_OUT so scripts/chaos_fuzz.sh can drive open-ended
/// campaigns and archive minimized failures.

namespace {

using mcds::core::BackboneView;
using mcds::graph::Graph;
using mcds::graph::NodeId;
using namespace mcds::dist;

constexpr std::size_t kScenarios = 240;
constexpr std::size_t kNodes = 22;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("CHAOS_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

Graph chaos_udg(std::uint64_t seed) {
  mcds::udg::InstanceParams params;
  params.nodes = kNodes;
  params.side = 5.0;
  params.radius = 1.6;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value()) << "graph seed " << seed;
  return inst->graph;
}

// Random mixed plan: crashes (sometimes with a later recovery) plus one
// or two partition split/heal pairs, occasionally on lossy links.
FaultPlan random_plan(mcds::sim::Rng& rng, std::size_t n) {
  FaultPlan plan;
  plan.seed = rng();
  const std::size_t crashes = rng.uniform_int(4);
  for (std::size_t i = 0; i < crashes; ++i) {
    const auto node = static_cast<NodeId>(rng.uniform_int(n));
    const auto round = 1 + static_cast<std::size_t>(rng.uniform_int(28));
    plan.schedule.push_back({round, node, false});
    if (rng.uniform_int(3) == 0) {
      plan.schedule.push_back(
          {round + 2 + static_cast<std::size_t>(rng.uniform_int(10)), node,
           true});
    }
  }
  std::size_t cursor = 1 + static_cast<std::size_t>(rng.uniform_int(8));
  const std::size_t pairs = 1 + rng.uniform_int(2);
  for (std::size_t p = 0; p < pairs; ++p) {
    PartitionEvent split;
    split.round = cursor;
    const std::size_t ways = 2 + rng.uniform_int(2);
    split.groups.resize(ways);
    for (NodeId v = 0; v < n; ++v) {
      split.groups[rng.uniform_int(ways)].push_back(v);
    }
    std::erase_if(split.groups,
                  [](const std::vector<NodeId>& g) { return g.empty(); });
    plan.partitions.push_back(std::move(split));
    cursor += 2 + static_cast<std::size_t>(rng.uniform_int(8));
    plan.partitions.push_back({cursor, {}});  // heal
    cursor += 1 + static_cast<std::size_t>(rng.uniform_int(6));
  }
  if (rng.uniform_int(4) == 0) {
    plan.link.drop = 0.05 + 0.1 * rng.uniform01();
  }
  return plan;
}

// ------------------------------------------------------------ invariants

// The topology actually usable at (up, group): live nodes, minus edges
// severed by the cut.
struct EffectiveGraph {
  Graph graph{0, {}};
  std::vector<NodeId> mapping;             ///< eff id -> full id
  std::vector<NodeId> to_eff;              ///< full id -> eff id / kNoNode
};

EffectiveGraph build_effective(const Graph& g, const std::vector<bool>& up,
                               const std::vector<std::uint32_t>& group) {
  EffectiveGraph out;
  out.to_eff.assign(g.num_nodes(), mcds::graph::kNoNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!up[v]) continue;
    out.to_eff[v] = static_cast<NodeId>(out.mapping.size());
    out.mapping.push_back(v);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const NodeId v : out.mapping) {
    for (const NodeId w : g.neighbors(v)) {
      if (w <= v || !up[w] || group[v] != group[w]) continue;
      edges.push_back({out.to_eff[v], out.to_eff[w]});
    }
  }
  out.graph = Graph(out.mapping.size(), edges);
  return out;
}

// Checks the partition invariants of backbone \p cds (full-graph ids)
// at state (up, group). Returns a description of the first violation.
std::optional<std::string> check_invariants(
    const Graph& g, const std::vector<bool>& up,
    const std::vector<std::uint32_t>& group, const std::vector<NodeId>& cds,
    const std::string& when) {
  const EffectiveGraph eff = build_effective(g, up, group);
  if (eff.mapping.empty()) return std::nullopt;  // nobody left to serve

  std::vector<NodeId> cds_eff;
  for (const NodeId v : cds) {
    if (up[v] && eff.to_eff[v] != mcds::graph::kNoNode) {
      cds_eff.push_back(eff.to_eff[v]);
    }
  }

  // Invariant 1: every reachable component is dominated by a connected
  // local backbone fragment (a CDS forest of the effective topology).
  const auto check = mcds::core::check_cds_components(eff.graph, cds_eff);
  if (!check.ok) {
    auto to_full = [&](NodeId v) {
      return v == mcds::graph::kNoNode ? v : eff.mapping[v];
    };
    mcds::core::CdsCheck full = check;
    full.witness = to_full(check.witness);
    full.witness2 = to_full(check.witness2);
    return when + ": " + full.describe();
  }

  // Invariant 2: each fragment is bounded against its own island MIS
  // (loose two-phased-style bound; catches runaway growth, not slack).
  const auto [comp, num_comps] =
      mcds::graph::connected_components(eff.graph);
  std::vector<std::vector<NodeId>> nodes_of(num_comps);
  for (NodeId v = 0; v < eff.graph.num_nodes(); ++v) {
    nodes_of[comp[v]].push_back(v);
  }
  std::vector<std::size_t> backbone_of(num_comps, 0);
  for (const NodeId v : cds_eff) ++backbone_of[comp[v]];
  for (std::size_t c = 0; c < num_comps; ++c) {
    const auto mis = mcds::core::first_fit_mis(eff.graph, nodes_of[c]);
    const std::size_t bound = 4 * mis.mis.size() + 12;
    if (backbone_of[c] > bound) {
      return when + ": island backbone has " +
             std::to_string(backbone_of[c]) + " nodes, exceeding 4*MIS+12 = " +
             std::to_string(bound);
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------- scenario replay

enum class Variant {
  kHealthy,  ///< the real partition-aware maintenance stack
  kBroken,   ///< prune-only strawman: drops dead members, never repairs
};

struct ScenarioResult {
  std::optional<std::string> failure;
  std::vector<NodeId> final_cds;
};

// Replays \p plan against maintenance: every event round re-derives
// (up, group); grouping changes reconcile the island replicas and
// re-split along the new cut; crash churn inside a stable grouping goes
// to the live replicas. Invariants are asserted after every event and
// once more after a forced final heal.
ScenarioResult run_scenario(const Graph& g, const FaultPlan& plan,
                            Variant variant) {
  const std::size_t n = g.num_nodes();
  ScenarioResult out;

  std::vector<std::size_t> rounds;
  for (const CrashEvent& e : plan.schedule) rounds.push_back(e.round);
  for (const PartitionEvent& e : plan.partitions) rounds.push_back(e.round);
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());

  const std::vector<NodeId> initial = mcds::core::waf_cds(g).cds;
  SelfHealingCds master(g, initial);
  std::vector<std::unique_ptr<SelfHealingCds>> replicas;
  std::vector<NodeId> broken_cds = initial;  // kBroken state
  std::vector<std::uint32_t> prev_group(n, 0);

  const auto current_backbone = [&]() -> std::vector<NodeId> {
    if (variant == Variant::kBroken) return broken_cds;
    if (replicas.empty()) return master.cds();
    std::vector<NodeId> u;
    for (const auto& r : replicas) {
      const BackboneView v = r->view();
      u.insert(u.end(), v.cds.begin(), v.cds.end());
    }
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    return u;
  };

  const auto apply = [&](const std::vector<bool>& up,
                         const std::vector<std::uint32_t>& group) {
    if (variant == Variant::kBroken) {
      std::erase_if(broken_cds, [&](NodeId v) { return !up[v]; });
      return;
    }
    if (group != prev_group) {
      // Grouping changed: fold the old islands' epoch-stamped views
      // back together, then re-split along the new cut.
      std::vector<BackboneView> views;
      views.reserve(replicas.size());
      for (const auto& r : replicas) views.push_back(r->view());
      if (views.empty()) {
        master.on_churn(up);
      } else {
        master.reconcile(views, up);
      }
      replicas.clear();
      std::vector<std::uint32_t> labels(group);
      std::sort(labels.begin(), labels.end());
      labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      if (labels.size() > 1) {
        for (const std::uint32_t label : labels) {
          std::vector<NodeId> island;
          for (NodeId v = 0; v < n; ++v) {
            if (group[v] == label) island.push_back(v);
          }
          auto r = std::make_unique<SelfHealingCds>(g, master.cds());
          r->set_island(std::move(island));
          r->on_churn(up);
          replicas.push_back(std::move(r));
        }
      }
    } else if (!replicas.empty()) {
      for (const auto& r : replicas) r->on_churn(up);
    } else {
      master.on_churn(up);
    }
  };

  for (const std::size_t r : rounds) {
    const auto up = plan.up_after(n, r);
    const auto group = plan.groups_at(n, r);
    apply(up, group);
    prev_group = group;
    if (auto fail = check_invariants(g, up, group, current_backbone(),
                                     "round " + std::to_string(r))) {
      out.failure = std::move(fail);
      return out;
    }
  }

  // Forced final heal: whatever the plan left cut must reconverge to one
  // CDS forest of the survivor graph.
  const auto up = plan.up_after(n, SIZE_MAX);
  const std::vector<std::uint32_t> healed(n, 0);
  apply(up, healed);
  prev_group = healed;
  out.failure = check_invariants(g, up, healed, current_backbone(),
                                 "after final heal");
  out.final_cds = current_backbone();
  return out;
}

// --------------------------------------------------------------- shrink

// ddmin-style event shrinking: greedily delete crash events, partition
// events, overrides and link noise while the scenario still fails,
// iterating to a fixpoint.
FaultPlan shrink_plan(const Graph& g, FaultPlan plan, Variant variant) {
  const auto still_fails = [&](const FaultPlan& candidate) {
    return run_scenario(g, candidate, variant).failure.has_value();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < plan.schedule.size(); ++i) {
      FaultPlan candidate = plan;
      candidate.schedule.erase(candidate.schedule.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        plan = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t i = 0; i < plan.partitions.size(); ++i) {
      FaultPlan candidate = plan;
      candidate.partitions.erase(candidate.partitions.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        plan = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    if (!plan.overrides.empty()) {
      FaultPlan candidate = plan;
      candidate.overrides.clear();
      if (still_fails(candidate)) {
        plan = std::move(candidate);
        progress = true;
      }
    }
    if (!progress && !plan.link.clean()) {
      FaultPlan candidate = plan;
      candidate.link = LinkFaults{};
      if (still_fails(candidate)) {
        plan = std::move(candidate);
        progress = true;
      }
    }
  }
  return plan;
}

std::size_t event_count(const FaultPlan& plan) {
  return plan.schedule.size() + plan.partitions.size();
}

// Archives a minimized failing plan when scripts/chaos_fuzz.sh asked
// for it (CHAOS_FUZZ_OUT names the artifact directory).
void archive_repro(const FaultPlan& plan, std::uint64_t gseed,
                   const std::string& tag) {
  if (const char* dir = std::getenv("CHAOS_FUZZ_OUT")) {
    save_fault_plan(plan, std::string(dir) + "/" + tag + "_graph" +
                              std::to_string(gseed) + ".json");
  }
}

}  // namespace

// 240 randomized partition schedules against the real maintenance
// stack: none may violate the invariants. A failure shrinks before it
// reports, so the log carries a minimal replayable JSON plan + seed.
TEST(PartitionChaos, RandomizedPartitionSchedules) {
  const std::uint64_t base = base_seed();
  std::size_t detector_legs = 0;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const std::uint64_t gseed = base + i % 29;
    const Graph g = chaos_udg(gseed);
    mcds::sim::Rng rng(base * 7919 + i);
    const FaultPlan plan = random_plan(rng, g.num_nodes());
    SCOPED_TRACE("scenario " + std::to_string(i) + ", graph seed " +
                 std::to_string(gseed));

    const ScenarioResult result = run_scenario(g, plan, Variant::kHealthy);
    if (result.failure) {
      const FaultPlan minimized = shrink_plan(g, plan, Variant::kHealthy);
      archive_repro(minimized, gseed, "healthy");
      ADD_FAILURE() << *result.failure << "\nminimized repro ("
                    << event_count(minimized) << " events), graph seed "
                    << gseed << ":\n"
                    << to_json(minimized);
      return;
    }

    // Determinism: the scenario is a pure function of (graph, plan).
    const ScenarioResult again = run_scenario(g, plan, Variant::kHealthy);
    ASSERT_EQ(result.final_cds, again.final_cds)
        << "scenario replay diverged";

    // Every 12th clean-link scenario also runs the accrual detector and
    // must converge to the plan's ground-truth suspect sets.
    if (i % 12 == 0 && plan.link.clean()) {
      RunConfig cfg;
      cfg.plan = plan;
      FailureDetectorParams params;
      params.rounds = 90;
      const auto truth_up = plan.up_after(g.num_nodes(), SIZE_MAX);
      const auto truth_groups = plan.groups_at(g.num_nodes(), SIZE_MAX);
      const auto det =
          detect_failures(g, cfg, params, truth_up, truth_groups);
      EXPECT_TRUE(det.converged_round.has_value())
          << "detector did not converge to the ground-truth suspect sets";
      ++detector_legs;
    }
  }
  EXPECT_GE(detector_legs, 5u) << "detector leg barely exercised";
}

// The prune-only strawman must be caught, and the failing plan must
// shrink to a handful of events that replay deterministically from the
// printed JSON.
TEST(PartitionChaos, BrokenHealerIsCaughtAndShrunk) {
  const std::uint64_t base = base_seed();
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const std::uint64_t gseed = base + i % 29;
    const Graph g = chaos_udg(gseed);
    mcds::sim::Rng rng(base * 104729 + i);
    const FaultPlan plan = random_plan(rng, g.num_nodes());
    const ScenarioResult result = run_scenario(g, plan, Variant::kBroken);
    if (!result.failure) continue;

    const FaultPlan minimized = shrink_plan(g, plan, Variant::kBroken);
    EXPECT_LE(event_count(minimized), 5u)
        << "shrink left " << event_count(minimized) << " events";

    // The minimized plan must replay from its own JSON: round-trip the
    // serialization and expect the identical failure.
    const FaultPlan replayed = fault_plan_from_json(to_json(minimized));
    const ScenarioResult replay_a = run_scenario(g, replayed, Variant::kBroken);
    const ScenarioResult replay_b = run_scenario(g, replayed, Variant::kBroken);
    ASSERT_TRUE(replay_a.failure.has_value())
        << "minimized plan no longer fails after JSON round-trip";
    EXPECT_EQ(*replay_a.failure, *replay_b.failure)
        << "minimized repro is not deterministic";
    archive_repro(minimized, gseed, "broken");

    std::cout << "caught broken healer; minimized repro ("
              << event_count(minimized) << " events), graph seed " << gseed
              << ": " << to_json(minimized) << "\n";
    return;  // one caught-and-shrunk repro is the acceptance criterion
  }
  FAIL() << "broken maintenance variant was never caught by the invariants";
}

// Island replicas and reconciliation: a deterministic two-island split
// with island-local churn must merge under highest-epoch-wins and end
// valid after the heal.
TEST(PartitionChaos, EpochReconciliationMergesIslandViews) {
  const Graph g = chaos_udg(3);
  const std::size_t n = g.num_nodes();
  const std::vector<NodeId> initial = mcds::core::waf_cds(g).cds;

  FaultPlan plan;
  PartitionEvent split;
  split.round = 2;
  split.groups.resize(2);
  for (NodeId v = 0; v < n; ++v) {
    split.groups[v % 2 == 0 ? 0 : 1].push_back(v);
  }
  plan.partitions.push_back(split);
  plan.schedule.push_back({4, initial.empty() ? 0 : initial[0], false});
  plan.partitions.push_back({6, {}});

  const ScenarioResult result = run_scenario(g, plan, Variant::kHealthy);
  EXPECT_FALSE(result.failure.has_value()) << *result.failure;

  // Direct check of the merge rule on a contested node: both views
  // speak for x, and the higher epoch decides its membership. Adding a
  // dominated neighbor of the backbone keeps it valid, so heal neither
  // re-adds nor drops x and the merge verdict survives verbatim.
  NodeId x = mcds::graph::kNoNode;
  for (NodeId v = 0; v < n; ++v) {
    if (!std::binary_search(initial.begin(), initial.end(), v)) {
      x = v;
      break;
    }
  }
  ASSERT_NE(x, mcds::graph::kNoNode);
  const std::vector<bool> up(n, true);
  {
    SelfHealingCds merged(g, initial);
    const BackboneView keep{{x}, {x}, 5};
    const BackboneView drop{{x}, {}, 3};
    const HealReport rep = merged.reconcile({keep, drop}, up);
    EXPECT_NE(rep.action, HealAction::kUnhealable);
    EXPECT_TRUE(
        std::binary_search(merged.cds().begin(), merged.cds().end(), x))
        << "epoch-5 keep verdict lost to epoch-3 drop";
    EXPECT_GE(merged.epoch(), 5u);
    const auto check = mcds::core::check_cds(g, merged.cds());
    EXPECT_TRUE(check.ok) << check.describe();
  }
  {
    SelfHealingCds merged(g, initial);
    const BackboneView keep{{x}, {x}, 3};
    const BackboneView drop{{x}, {}, 5};
    merged.reconcile({keep, drop}, up);
    EXPECT_FALSE(
        std::binary_search(merged.cds().begin(), merged.cds().end(), x))
        << "epoch-5 drop verdict lost to epoch-3 keep";
  }
}
