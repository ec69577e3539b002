#include "dist/maintenance.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/repair.hpp"
#include "dist/distributed_cds.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "obs/timer.hpp"

namespace mcds::dist {

namespace {
constexpr const char* kActionName[5] = {
    "maintenance.intact", "maintenance.reconnected", "maintenance.repaired",
    "maintenance.rebuilt", "maintenance.unhealable"};

/// Full rebuild when fewer than this fraction of the previous backbone
/// survives the churn event (repairing a near-empty skeleton costs more
/// nodes than rebuilding).
constexpr double kRebuildFraction = 0.34;
}  // namespace

SelfHealingCds::SelfHealingCds(const Graph& g, std::vector<NodeId> cds,
                               const obs::Obs& obs)
    : g_(g), cds_(std::move(cds)), obs_(obs) {
  for (std::size_t i = 0; i < 5; ++i) {
    c_action_[i] = obs_.counter(kActionName[i]);
  }
  c_unhealable_ = obs_.counter("heal.unhealable");
  for (const NodeId v : cds_) {
    if (v >= g_.num_nodes()) {
      throw std::invalid_argument("SelfHealingCds: cds node out of range");
    }
  }
  std::sort(cds_.begin(), cds_.end());
  if (!cds_.empty()) last_good_ = view();
}

void SelfHealingCds::set_island(std::vector<NodeId> island) {
  for (const NodeId v : island) {
    if (v >= g_.num_nodes()) {
      throw std::invalid_argument("SelfHealingCds: island node out of range");
    }
  }
  std::sort(island.begin(), island.end());
  island.erase(std::unique(island.begin(), island.end()), island.end());
  island_ = std::move(island);
}

core::BackboneView SelfHealingCds::view() const {
  core::BackboneView out;
  out.epoch = epoch_;
  if (island_.empty()) {
    out.island.resize(g_.num_nodes());
    for (NodeId v = 0; v < g_.num_nodes(); ++v) out.island[v] = v;
    out.cds = cds_;
    return out;
  }
  out.island = island_;
  for (const NodeId v : cds_) {
    if (std::binary_search(island_.begin(), island_.end(), v)) {
      out.cds.push_back(v);
    }
  }
  return out;
}

HealReport SelfHealingCds::on_churn(const std::vector<bool>& up) {
  if (up.size() != g_.num_nodes()) {
    throw std::invalid_argument("SelfHealingCds: liveness size mismatch");
  }
  obs::ScopedTimer timer(obs_, "heal.on_churn");
  const std::vector<NodeId> before = cds_;
  HealReport report = heal(up);
  if (cds_ != before) ++epoch_;
  report.epoch = epoch_;
  if (report.action == HealAction::kUnhealable) {
    // Degraded mode: nothing live in scope. Report what we are coasting
    // on — the newest view that still had an in-scope backbone — so an
    // operator can tell an empty island from a healer that gave up.
    report.degraded.last_good_epoch = last_good_.epoch;
    report.degraded.last_good_members = last_good_.cds.size();
    report.degraded.consecutive = ++consecutive_unhealable_;
    if (c_unhealable_) c_unhealable_->add();
  } else {
    consecutive_unhealable_ = 0;
    const core::BackboneView now = view();
    if (!now.cds.empty()) last_good_ = now;
  }
  if (auto* c = c_action_[static_cast<std::size_t>(report.action)]) c->add();
  if (obs_.metrics) {
    obs_.metrics->histogram("maintenance.added").record(
        static_cast<double>(report.added));
    obs_.metrics->histogram("maintenance.dropped")
        .record(static_cast<double>(report.dropped));
  }
  return report;
}

HealReport SelfHealingCds::reconcile(
    const std::vector<core::BackboneView>& views, const std::vector<bool>& up) {
  if (up.size() != g_.num_nodes()) {
    throw std::invalid_argument("SelfHealingCds: liveness size mismatch");
  }
  obs::ScopedTimer timer(obs_, "heal.reconcile");

  // Per-node merge, highest epoch wins: apply the views in ascending
  // epoch order (stable, so equal epochs resolve towards the later view
  // in argument order) on top of the current membership.
  std::vector<bool> member(g_.num_nodes(), false);
  for (const NodeId v : cds_) member[v] = true;
  std::vector<std::size_t> order(views.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return views[a].epoch < views[b].epoch;
                   });
  std::size_t max_epoch = epoch_;
  for (const std::size_t i : order) {
    const core::BackboneView& v = views[i];
    max_epoch = std::max(max_epoch, v.epoch);
    for (const NodeId u : v.island) {
      if (u >= g_.num_nodes()) {
        throw std::invalid_argument(
            "SelfHealingCds: view island node out of range");
      }
      member[u] = std::binary_search(v.cds.begin(), v.cds.end(), u);
    }
  }

  island_.clear();
  cds_.clear();
  for (NodeId v = 0; v < g_.num_nodes(); ++v) {
    if (member[v]) cds_.push_back(v);
  }
  // The merged union keeps every island's maintained fragment, so the
  // kept fraction stays near 1 and heal() reglues instead of rebuilding.
  epoch_ = max_epoch;
  if (auto* c = obs_.counter("maintenance.reconciled")) c->add();
  return on_churn(up);
}

HealReport SelfHealingCds::heal(const std::vector<bool>& up) {
  HealReport report;

  // The pass's scope: the island when one is set, the whole graph
  // otherwise. Backbone members outside the scope are frozen — carried
  // through untouched and invisible to the counters.
  const bool scoped = !island_.empty();
  std::vector<NodeId> live;
  if (scoped) {
    for (const NodeId v : island_) {
      if (up[v]) live.push_back(v);
    }
  } else {
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (up[v]) live.push_back(v);
    }
  }
  report.survivors = live.size();

  std::vector<NodeId> frozen;  // members outside the scope
  std::vector<NodeId> scope_members;
  for (const NodeId v : cds_) {
    if (scoped && !std::binary_search(island_.begin(), island_.end(), v)) {
      frozen.push_back(v);
    } else {
      scope_members.push_back(v);
    }
  }
  const std::size_t old_size = scope_members.size();

  std::vector<NodeId> survivors_of_backbone;
  for (const NodeId v : scope_members) {
    if (up[v]) survivors_of_backbone.push_back(v);
  }
  report.kept = survivors_of_backbone.size();
  report.dropped = old_size - survivors_of_backbone.size();

  const auto reassemble = [&](std::vector<NodeId> healed) {
    healed.insert(healed.end(), frozen.begin(), frozen.end());
    std::sort(healed.begin(), healed.end());
    cds_ = std::move(healed);
  };

  if (live.empty()) {
    reassemble({});
    report.action = HealAction::kUnhealable;
    report.kept = 0;
    return report;
  }

  // Everything below happens on the scope's survivor-induced subgraph
  // (possibly fragmented — crashes, or the far side of a partition cut);
  // sub ids map back through sub.mapping. A sub id is a position in the
  // ascending `live`, and the backbone survivors are an ascending subset
  // of it, so one forward search finds all of theirs.
  const auto sub = graph::induced_subgraph(g_, live);
  std::vector<NodeId> backbone_sub;
  backbone_sub.reserve(survivors_of_backbone.size());
  auto pos = live.begin();
  for (const NodeId v : survivors_of_backbone) {
    pos = std::lower_bound(pos, live.end(), v);
    backbone_sub.push_back(static_cast<NodeId>(pos - live.begin()));
  }
  const auto [comp, num_comps] = graph::connected_components(sub.graph);
  report.islands = num_comps;

  {
    obs::ScopedTimer t(obs_, "heal.validate");
    report.issue = core::check_cds_components(sub.graph, backbone_sub);
  }
  if (report.issue.ok) {
    reassemble(std::move(survivors_of_backbone));
    report.action = HealAction::kIntact;
    return report;
  }
  // Translate the witness back to full-graph ids for the caller.
  if (report.issue.witness != graph::kNoNode) {
    report.issue.witness = sub.mapping[report.issue.witness];
  }
  if (report.issue.witness2 != graph::kNoNode) {
    report.issue.witness2 = sub.mapping[report.issue.witness2];
  }

  std::vector<NodeId> healed_sub;
  if (old_size > 0 && static_cast<double>(report.kept) <
                          kRebuildFraction * static_cast<double>(old_size)) {
    // Too little survived: re-run the distributed construction on the
    // survivor topology, component by component (phase re-run, not
    // repair). The rebuild's own phases inherit the observability sinks.
    obs::ScopedTimer t(obs_, "heal.rebuild");
    RunConfig rebuild_cfg;
    rebuild_cfg.obs = obs_;
    std::vector<std::vector<NodeId>> nodes_of(num_comps);
    for (NodeId i = 0; i < sub.graph.num_nodes(); ++i) {
      nodes_of[comp[i]].push_back(i);
    }
    for (const auto& nodes : nodes_of) {
      const auto island = graph::induced_subgraph(sub.graph, nodes);
      const DistributedCdsResult rebuilt =
          distributed_waf_cds(island.graph, rebuild_cfg);
      for (const NodeId i : rebuilt.cds) {
        healed_sub.push_back(island.mapping[i]);
      }
      report.stats += rebuilt.total;
    }
    report.action = HealAction::kRebuilt;
  } else {
    // The check reports a split backbone only once coverage held; then
    // repair_cds adds no dominator and only reglues the fragments within
    // their components (the cut itself cannot be bridged). Otherwise it
    // restores coverage first.
    const bool split = report.issue.defect == core::CdsDefect::kDisconnected;
    obs::ScopedTimer t(obs_, split ? "heal.reconnect" : "heal.repair");
    healed_sub = core::repair_cds(sub.graph, backbone_sub).cds;
    report.action = split ? HealAction::kReconnected : HealAction::kRepaired;
  }

  std::vector<NodeId> healed;
  healed.reserve(healed_sub.size());
  for (const NodeId i : healed_sub) healed.push_back(sub.mapping[i]);
  std::sort(healed.begin(), healed.end());

  std::size_t still_kept = 0;
  for (const NodeId v : healed) {
    if (std::binary_search(survivors_of_backbone.begin(),
                           survivors_of_backbone.end(), v)) {
      ++still_kept;
    }
  }
  report.added = healed.size() - still_kept;
  report.dropped = old_size - still_kept;
  report.kept = still_kept;

  reassemble(std::move(healed));
  return report;
}

}  // namespace mcds::dist
