// Experiment E24 (robustness): partition tolerance end to end.
// Part 1 sweeps the duration of a scheduled two-way partition and
// measures how long the accrual failure detector takes to converge back
// to the all-clear after the heal — the detection-side cost of a cut.
// Part 2 maintains the backbone through the same cuts with island-scoped
// SelfHealingCds replicas (churn injected while the cut is open, more of
// it the longer the cut) and measures the cost of the epoch-based
// reconcile at heal time.
//
// Claims checked (the bench exits non-zero if any fails):
//   - the detector converges after every heal, within a fixed latency
//     budget independent of how long the cut was open;
//   - the cut actually severed traffic (partition_dropped > 0);
//   - the reconciled backbone is a valid CDS forest of the survivor
//     graph and its size stays inside the 4|MIS| + 12 per-component
//     envelope the chaos fuzzer enforces.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/mis.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "dist/failure_detector.hpp"
#include "dist/fault.hpp"
#include "dist/maintenance.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
#include "obs/metrics.hpp"
#include "sim/table.hpp"
#include "udg/instance.hpp"

namespace {

using namespace mcds;
using graph::Graph;
using graph::NodeId;

constexpr std::size_t kSplitRound = 3;
constexpr std::size_t kTailRounds = 40;  // observation past the heal
// Convergence latency budget after the heal: with heartbeat_every = 1
// and threshold 3 the all-clear needs one heartbeat exchange plus the
// sweep; anything beyond this is a detector regression.
constexpr std::size_t kLatencyBudget = 30;

udg::UdgInstance make_instance(std::size_t n) {
  udg::InstanceParams params;
  params.nodes = n;
  // Dense enough (average degree ~ 9) that the largest component keeps
  // nearly every node — the experiment is specified at n = 1k / 4k.
  params.side = std::sqrt(static_cast<double>(n)) * 0.6;
  return udg::generate_largest_component_instance(params, 42 + n);
}

// Two-way split by node id: low half vs high half.
dist::PartitionEvent halves_split(std::size_t n, std::size_t round) {
  dist::PartitionEvent split;
  split.round = round;
  split.groups.resize(2);
  for (NodeId v = 0; v < n; ++v) {
    split.groups[v < n / 2 ? 0 : 1].push_back(v);
  }
  return split;
}

// Validity + size envelope of a maintained backbone on the survivor
// graph (per connected component, matching the chaos fuzzer).
struct BackboneAudit {
  bool valid = false;
  bool bounded = false;
  std::size_t size = 0;
};

BackboneAudit audit_backbone(const Graph& g, const std::vector<bool>& up,
                             const std::vector<NodeId>& cds) {
  std::vector<NodeId> live;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (up[v]) live.push_back(v);
  }
  const auto sub = graph::induced_subgraph(g, live);
  std::vector<NodeId> to_sub(g.num_nodes(), graph::kNoNode);
  for (NodeId s = 0; s < sub.mapping.size(); ++s) to_sub[sub.mapping[s]] = s;
  std::vector<NodeId> mapped;
  for (const NodeId v : cds) {
    if (to_sub[v] != graph::kNoNode) mapped.push_back(to_sub[v]);
  }
  std::sort(mapped.begin(), mapped.end());

  BackboneAudit out;
  out.size = mapped.size();
  out.valid = core::check_cds_components(sub.graph, mapped).ok;
  const auto [labels, num_comps] = graph::connected_components(sub.graph);
  std::vector<NodeId> order(sub.graph.num_nodes());
  for (NodeId v = 0; v < order.size(); ++v) order[v] = v;
  const auto mis = core::first_fit_mis(sub.graph, order);
  out.bounded =
      mapped.size() <= 4 * mis.mis.size() + 12 * std::max<std::size_t>(
                                                     num_comps, 1);
  return out;
}

}  // namespace

int main() {
  bench::banner("E24 / partition tolerance",
                "detector convergence and heal overhead vs cut duration");
  bench::Falsifier falsifier;
  const std::size_t sizes[] = {1000, 4096};
  const std::size_t durations[] = {4, 8, 16, 32};

  std::cout << "\nDetector convergence after a two-way cut (split at round "
            << kSplitRound << "):\n";
  sim::Table det_table({"n", "cut rounds", "converged", "latency", "messages",
                        "cut drops"});
  for (const std::size_t n : sizes) {
    const auto inst = make_instance(n);
    const std::size_t nn = inst.graph.num_nodes();
    for (const std::size_t d : durations) {
      const std::size_t heal_round = kSplitRound + d;
      obs::MetricsRegistry reg;
      dist::RunConfig cfg;
      cfg.plan.partitions.push_back(halves_split(nn, kSplitRound));
      cfg.plan.partitions.push_back({heal_round, {}});
      cfg.obs.metrics = &reg;
      dist::FailureDetectorParams params;
      params.rounds = heal_round + kTailRounds;
      // Final truth: everyone up, one group — the detector must return
      // to the all-clear and stay there.
      const auto r = dist::detect_failures(
          inst.graph, cfg, params, std::vector<bool>(nn, true),
          std::vector<std::uint32_t>(nn, 0));
      const std::size_t dropped =
          reg.counter("fault.partition_dropped").value();
      const bool converged = r.converged_round.has_value();
      const std::size_t latency =
          converged && *r.converged_round > heal_round
              ? *r.converged_round - heal_round
              : 0;
      det_table.row()
          .add(nn)
          .add(d)
          .add(converged ? "yes" : "NO")
          .add(latency)
          .add(r.stats.messages)
          .add(dropped);
      falsifier.check(converged,
                      "detector re-converges after the heal (n = " +
                          std::to_string(nn) + ", cut = " +
                          std::to_string(d) + ")");
      falsifier.check(!converged || latency <= kLatencyBudget,
                      "post-heal latency inside the budget (n = " +
                          std::to_string(nn) + ", cut = " +
                          std::to_string(d) + ")");
      falsifier.check(dropped > 0,
                      "the cut severed at least one heartbeat (n = " +
                          std::to_string(nn) + ")");
    }
  }
  det_table.print(std::cout);
  std::cout << "(latency = rounds from the heal to a correct, stable "
               "suspect map everywhere; budget "
            << kLatencyBudget << ")\n";

  std::cout << "\nIsland-scoped maintenance + epoch reconcile at heal "
               "(one crash per 8 cut rounds):\n";
  sim::Table heal_table({"n", "cut rounds", "crashes", "kept", "added",
                         "dropped", "size", "valid", "bounded"});
  for (const std::size_t n : sizes) {
    const auto inst = make_instance(n);
    const Graph& g = inst.graph;
    const std::size_t nn = g.num_nodes();
    const auto initial = core::waf_cds(g).cds;
    const auto split = halves_split(nn, kSplitRound);

    for (const std::size_t d : durations) {
      std::vector<bool> up(nn, true);
      dist::SelfHealingCds master(g, initial);

      // The cut opens: each side maintains its island independently.
      std::vector<std::unique_ptr<dist::SelfHealingCds>> replicas;
      for (const auto& group : split.groups) {
        auto rep = std::make_unique<dist::SelfHealingCds>(g, master.cds());
        rep->set_island(group);
        replicas.push_back(std::move(rep));
      }

      // Churn while the cut is open, scaling with its duration: every
      // 8th round one backbone node dies, alternating sides.
      const std::size_t crashes = 1 + d / 8;
      std::size_t killed = 0;
      for (std::size_t c = 0; c < crashes && c < initial.size(); ++c) {
        const NodeId victim =
            c % 2 == 0 ? initial[c] : initial[initial.size() - 1 - c];
        if (!up[victim]) continue;
        up[victim] = false;
        ++killed;
        for (auto& rep : replicas) rep->on_churn(up);
      }

      // The heal: merge both islands' epoch-stamped views.
      std::vector<core::BackboneView> views;
      for (const auto& rep : replicas) views.push_back(rep->view());
      const auto report = master.reconcile(views, up);
      const auto audit = audit_backbone(g, up, master.cds());

      heal_table.row()
          .add(nn)
          .add(d)
          .add(killed)
          .add(report.kept)
          .add(report.added)
          .add(report.dropped)
          .add(audit.size)
          .add(audit.valid ? "yes" : "NO")
          .add(audit.bounded ? "yes" : "NO");
      falsifier.check(report.action != dist::HealAction::kUnhealable,
                      "reconcile heals the merged backbone (n = " +
                          std::to_string(nn) + ", cut = " +
                          std::to_string(d) + ")");
      falsifier.check(audit.valid,
                      "reconciled backbone is a valid CDS forest of the "
                      "survivor graph (n = " +
                          std::to_string(nn) + ", cut = " +
                          std::to_string(d) + ")");
      falsifier.check(audit.bounded,
                      "reconciled backbone inside 4|MIS| + 12/component "
                      "(n = " +
                          std::to_string(nn) + ", cut = " +
                          std::to_string(d) + ")");
    }
  }
  heal_table.print(std::cout);
  std::cout << "(kept/added/dropped are the reconcile pass's own actions; "
               "churn = one backbone crash per 8 rounds of cut)\n";

  falsifier.report("partition_tolerance");
  return falsifier.exit_code();
}
