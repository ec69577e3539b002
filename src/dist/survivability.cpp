#include "dist/survivability.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/validate.hpp"
#include "dist/maintenance.hpp"
#include "graph/subgraph.hpp"
#include "obs/export.hpp"

namespace mcds::dist {

namespace {

/// Verdict on the un-healed backbone against one (topology, liveness)
/// snapshot. Crashed members are simply absent; nothing is repaired.
struct EventEval {
  bool dominated = true;
  bool connected = true;
  double coverage = 1.0;
};

EventEval evaluate_unhealed(const Graph& g, const std::vector<bool>& up,
                            const std::vector<std::uint8_t>& in_backbone) {
  EventEval eval;
  std::vector<NodeId> live;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (up[v]) live.push_back(v);
  }
  if (live.empty()) return eval;

  // Coverage sweep: live non-members with a live member neighbor.
  std::size_t outside = 0;
  std::size_t covered = 0;
  for (const NodeId v : live) {
    if (in_backbone[v]) continue;
    ++outside;
    for (const NodeId u : g.neighbors(v)) {
      if (up[u] && in_backbone[u]) {
        ++covered;
        break;
      }
    }
  }
  if (outside > 0) {
    eval.coverage =
        static_cast<double>(covered) / static_cast<double>(outside);
  }
  eval.dominated = covered == outside;

  // Member connectivity per survivor component: the live members inside
  // each component of G[live] must induce one connected piece — the
  // split rule, with G[live]'s labels as the topology. A memberless
  // component holding any non-member already failed the coverage sweep
  // above (its nodes have no live member neighbor).
  const auto [comp, num_comps] = graph::subset_components(g, live);
  std::vector<NodeId> members;
  std::vector<std::uint32_t> member_comp;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!in_backbone[live[i]]) continue;
    members.push_back(live[i]);
    member_comp.push_back(comp[i]);
  }
  eval.connected =
      core::first_split(g, members, member_comp, num_comps).component ==
      core::kNoLabel;
  return eval;
}

void record_event(SurvivabilityReport& report, std::size_t event_idx,
                  const EventEval& eval) {
  report.min_coverage = std::min(report.min_coverage, eval.coverage);
  if (!eval.dominated && report.first_domination_loss == 0) {
    report.first_domination_loss = event_idx;
  }
  if (!eval.connected && report.first_disconnection == 0) {
    report.first_disconnection = event_idx;
  }
}

void record_heal(SurvivabilityReport& report, const HealReport& heal) {
  if (heal.action != HealAction::kIntact) {
    ++report.heal_passes;
    report.heal_added += heal.added;
  }
}

}  // namespace

SurvivabilityReport survive_fault_plan(const Graph& g,
                                       const SurvivabilityVariant& variant,
                                       const FaultPlan& plan,
                                       const obs::Obs& obs) {
  plan.validate();
  SurvivabilityReport report;
  report.name = variant.name;
  report.params = variant.params;
  const core::KmCdsResult built =
      core::kmcds(g, variant.params, variant.root, obs);
  report.backbone_size = built.backbone.size();
  std::vector<std::uint8_t> in_backbone(g.num_nodes(), 0);
  for (const NodeId v : built.backbone) in_backbone[v] = 1;

  std::vector<bool> up(g.num_nodes(), true);
  SelfHealingCds healer(g, built.backbone, obs);
  for (const CrashEvent& event : plan.schedule) {
    if (event.node >= g.num_nodes()) {
      throw std::invalid_argument("survive_fault_plan: event node range");
    }
    up[event.node] = event.up;
    ++report.events;
    record_event(report, report.events, evaluate_unhealed(g, up, in_backbone));
    record_heal(report, healer.on_churn(up));
    obs::tick_snapshot(obs);
  }
  return report;
}

SurvivabilityReport survive_churn(const Graph& initial,
                                  std::span<const udg::ChurnEpoch> epochs,
                                  const SurvivabilityVariant& variant,
                                  const obs::Obs& obs) {
  SurvivabilityReport report;
  report.name = variant.name;
  report.params = variant.params;
  const core::KmCdsResult built =
      core::kmcds(initial, variant.params, variant.root, obs);
  report.backbone_size = built.backbone.size();
  std::vector<std::uint8_t> in_backbone(initial.num_nodes(), 0);
  for (const NodeId v : built.backbone) in_backbone[v] = 1;

  // The healer's state across epochs is the healed backbone itself; the
  // driver is re-seeded per epoch because the topology moved under it.
  std::vector<NodeId> healed = built.backbone;
  for (const udg::ChurnEpoch& epoch : epochs) {
    if (epoch.topology.num_nodes() != initial.num_nodes()) {
      throw std::invalid_argument("survive_churn: epoch node count mismatch");
    }
    ++report.events;
    record_event(report, report.events,
                 evaluate_unhealed(epoch.topology, epoch.up, in_backbone));
    SelfHealingCds healer(epoch.topology, std::move(healed), obs);
    record_heal(report, healer.on_churn(epoch.up));
    healed = healer.cds();
    obs::tick_snapshot(obs);
  }
  return report;
}

namespace {

bool survives_every_single_crash(const Graph& g,
                                 std::span<const NodeId> backbone,
                                 bool check_domination) {
  std::vector<std::uint8_t> in_backbone(g.num_nodes(), 0);
  for (const NodeId v : backbone) {
    if (v >= g.num_nodes()) {
      throw std::invalid_argument("survivability: backbone node range");
    }
    in_backbone[v] = 1;
  }
  std::vector<bool> up(g.num_nodes(), true);
  for (const NodeId v : backbone) {
    up[v] = false;
    const EventEval eval = evaluate_unhealed(g, up, in_backbone);
    up[v] = true;
    if (check_domination ? !eval.dominated : !eval.connected) return false;
  }
  return true;
}

}  // namespace

bool dominates_after_any_single_member_crash(const Graph& g,
                                             std::span<const NodeId> backbone) {
  return survives_every_single_crash(g, backbone, /*check_domination=*/true);
}

bool connected_after_any_single_member_crash(const Graph& g,
                                             std::span<const NodeId> backbone) {
  return survives_every_single_crash(g, backbone, /*check_domination=*/false);
}

}  // namespace mcds::dist
