#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kmcds.hpp"
#include "dist/maintenance.hpp"
#include "dist/survivability.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"
#include "udg/mobility.hpp"

/// \file test_dist_survivability.cpp
/// The crash-survival harness and the survive-by-construction claims:
/// m >= 2 backbones keep domination through any single member crash,
/// k = 2 backbones keep member connectivity, and the harness's
/// reactive-heal shadow pays nothing for a crash the construction
/// already absorbed. The Km* suite name routes these tests into the
/// sanitizer CI legs.

namespace {

using mcds::graph::Graph;
using mcds::graph::NodeId;
using namespace mcds::dist;

Graph corpus_udg(std::uint64_t seed, std::size_t nodes = 40) {
  mcds::udg::InstanceParams params;
  params.nodes = nodes;
  params.side = 7.0;
  params.radius = 1.9;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value()) << "graph seed " << seed;
  return inst->graph;
}

}  // namespace

// The acceptance property, checked exhaustively: every m >= 2 backbone
// on the corpus remains a valid dominating set of the survivor graph
// after *any* single member crash, before any heal runs; every k = 2
// backbone keeps its surviving members connected per survivor
// component. The plain (1,1) CDS must fail the domination version on at
// least one corpus instance — that contrast is the point of the family.
TEST(KmSurvivability, SingleCrashSurvivalByConstruction) {
  std::size_t plain_failures = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = corpus_udg(seed);
    for (const mcds::core::KmParams params :
         {mcds::core::KmParams{1, 2}, mcds::core::KmParams{2, 2}}) {
      const auto r = mcds::core::kmcds(g, params);
      EXPECT_TRUE(dominates_after_any_single_member_crash(g, r.backbone))
          << "seed " << seed << " (" << params.k << "," << params.m << ")";
    }
    for (const mcds::core::KmParams params :
         {mcds::core::KmParams{2, 1}, mcds::core::KmParams{2, 2}}) {
      const auto r = mcds::core::kmcds(g, params);
      EXPECT_TRUE(connected_after_any_single_member_crash(g, r.backbone))
          << "seed " << seed << " (" << params.k << "," << params.m << ")";
    }
    const auto plain = mcds::core::kmcds(g, {1, 1});
    if (!dominates_after_any_single_member_crash(g, plain.backbone)) {
      ++plain_failures;
    }
  }
  EXPECT_GE(plain_failures, 1u)
      << "every plain CDS on the corpus happened to survive single "
         "crashes — the corpus no longer exercises the contrast";
}

// Crash one member of each variant's own backbone: the m = 2 variants
// keep full coverage (no domination loss), and (2,2) — which also
// guarantees connectivity — rides it out entirely, with no heal spend.
// A (1,2) backbone may legitimately disconnect (k = 1 promises
// nothing there), so its connectivity bookkeeping is not pinned.
TEST(KmSurvivability, FaultPlanSingleMemberCrash) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = corpus_udg(seed);
    for (const mcds::core::KmParams params :
         {mcds::core::KmParams{1, 2}, mcds::core::KmParams{2, 2}}) {
      const SurvivabilityVariant variant{"test", params, 0};
      const auto built = mcds::core::kmcds(g, params);
      ASSERT_FALSE(built.backbone.empty());
      FaultPlan plan;
      plan.schedule.push_back({1, built.backbone.front(), false});

      const SurvivabilityReport report =
          survive_fault_plan(g, variant, plan);
      EXPECT_EQ(report.events, 1u);
      EXPECT_EQ(report.backbone_size, built.backbone.size());
      EXPECT_EQ(report.first_domination_loss, 0u) << "seed " << seed;
      EXPECT_EQ(report.min_coverage, 1.0);
      if (params.k == 2) {
        EXPECT_EQ(report.first_disconnection, 0u) << "seed " << seed;
        EXPECT_EQ(report.events_until_invalid(), 1u);
        EXPECT_EQ(report.heal_passes, 0u)
            << "construction absorbed the crash; the healer had to act";
        EXPECT_EQ(report.heal_added, 0u);
      }
    }
  }
}

// A hostile schedule — kill the variant's own members one by one — must
// eventually invalidate even the strong variants, with monotone
// bookkeeping and a meaningful heal-cost trace for plain CDS.
TEST(KmSurvivability, FaultPlanMemberMassacre) {
  const Graph g = corpus_udg(3);
  for (const mcds::core::KmParams params :
       {mcds::core::KmParams{1, 1}, mcds::core::KmParams{1, 2},
        mcds::core::KmParams{2, 1}, mcds::core::KmParams{2, 2}}) {
    const SurvivabilityVariant variant{"massacre", params, 0};
    const auto built = mcds::core::kmcds(g, params);
    FaultPlan plan;
    std::size_t round = 1;
    for (const NodeId member : built.backbone) {
      plan.schedule.push_back({round++, member, false});
    }
    const SurvivabilityReport report = survive_fault_plan(g, variant, plan);
    EXPECT_EQ(report.events, built.backbone.size());
    // Killing the whole backbone leaves live non-members uncovered.
    EXPECT_NE(report.first_domination_loss, 0u)
        << "(" << params.k << "," << params.m << ")";
    EXPECT_LT(report.events_until_invalid(), report.events);
    EXPECT_GE(report.min_coverage, 0.0);
    EXPECT_LT(report.min_coverage, 1.0);
    // The reactive shadow had to recruit replacements along the way.
    EXPECT_GE(report.heal_passes, 1u);
  }
}

// The m = 2 variants must survive strictly longer than their own plain
// counterpart under the *same* hostile schedule (kill the plain CDS
// members in order): crashing one plain dominator is absorbed by m = 2
// coverage, so their first loss comes later or never.
TEST(KmSurvivability, StrongerVariantsSurviveLonger) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = corpus_udg(seed);
    const auto plain = mcds::core::kmcds(g, {1, 1});
    FaultPlan plan;
    std::size_t round = 1;
    for (const NodeId member : plain.backbone) {
      plan.schedule.push_back({round++, member, false});
    }
    const auto survived = [&](mcds::core::KmParams params) {
      const SurvivabilityVariant variant{"rank", params, 0};
      return survive_fault_plan(g, variant, plan).events_until_invalid();
    };
    EXPECT_GE(survived({1, 2}), survived({1, 1})) << "seed " << seed;
    EXPECT_GE(survived({2, 2}), survived({1, 1})) << "seed " << seed;
  }
}

// Churn composition: mobility rewires the topology while nodes crash
// and recover. The harness must stay deterministic and keep its
// bookkeeping coherent over the whole trace.
TEST(KmSurvivability, ChurnScheduleComposition) {
  mcds::udg::WaypointParams wp;
  wp.side = 7.0;
  const double radius = 2.4;
  mcds::udg::ChurnParams churn;
  churn.crash_prob = 0.12;
  churn.recover_prob = 0.4;

  const auto run = [&](mcds::core::KmParams params) {
    mcds::udg::RandomWaypoint motion(30, wp, /*seed=*/11);
    const Graph initial = mcds::udg::build_udg(motion.positions(), radius);
    const auto epochs =
        mcds::udg::churn_schedule(motion, radius, /*epochs=*/8,
                                  /*ticks_per_epoch=*/2, churn, /*seed=*/13);
    const SurvivabilityVariant variant{"churn", params, 0};
    return survive_churn(initial, epochs, variant);
  };

  for (const mcds::core::KmParams params :
       {mcds::core::KmParams{1, 1}, mcds::core::KmParams{1, 2},
        mcds::core::KmParams{2, 2}}) {
    const SurvivabilityReport a = run(params);
    const SurvivabilityReport b = run(params);
    EXPECT_EQ(a.events, 8u);
    EXPECT_GE(a.min_coverage, 0.0);
    EXPECT_LE(a.min_coverage, 1.0);
    EXPECT_LE(a.events_until_invalid(), a.events);
    // Determinism: identical seeds, identical report.
    EXPECT_EQ(a.first_domination_loss, b.first_domination_loss);
    EXPECT_EQ(a.first_disconnection, b.first_disconnection);
    EXPECT_EQ(a.min_coverage, b.min_coverage);
    EXPECT_EQ(a.heal_passes, b.heal_passes);
    EXPECT_EQ(a.heal_added, b.heal_added);
  }
}

// Satellite: the kUnhealable degraded-mode report. Crashing every node
// in scope must expose the last good epoch/backbone, count consecutive
// degraded passes, bump heal.unhealable, and recover cleanly.
TEST(KmSurvivability, DegradedModeReportOnUnhealable) {
  const Graph g = corpus_udg(5, /*nodes=*/20);
  const auto built = mcds::core::kmcds(g, {1, 1});

  mcds::obs::MetricsRegistry metrics;
  mcds::obs::Obs obs{&metrics, nullptr};
  SelfHealingCds healer(g, built.backbone, obs);

  // A first healthy pass establishes a last-good view at some epoch.
  std::vector<bool> up(g.num_nodes(), true);
  const HealReport healthy = healer.on_churn(up);
  EXPECT_EQ(healthy.action, HealAction::kIntact);
  const std::size_t good_epoch = healer.epoch();
  const std::size_t good_members = healer.last_good_view().cds.size();
  EXPECT_GT(good_members, 0u);

  // Total blackout: degraded mode, coasting on the last good view.
  std::fill(up.begin(), up.end(), false);
  const HealReport dark1 = healer.on_churn(up);
  EXPECT_EQ(dark1.action, HealAction::kUnhealable);
  EXPECT_EQ(dark1.degraded.last_good_epoch, good_epoch);
  EXPECT_EQ(dark1.degraded.last_good_members, good_members);
  EXPECT_EQ(dark1.degraded.consecutive, 1u);
  const HealReport dark2 = healer.on_churn(up);
  EXPECT_EQ(dark2.degraded.consecutive, 2u);
  EXPECT_EQ(metrics.counter("heal.unhealable").value(), 2u);

  // A healthy pass clears the streak; the next blackout restarts it.
  std::fill(up.begin(), up.end(), true);
  const HealReport back = healer.on_churn(up);
  EXPECT_NE(back.action, HealAction::kUnhealable);
  EXPECT_EQ(back.degraded.consecutive, 0u);
  std::fill(up.begin(), up.end(), false);
  const HealReport dark3 = healer.on_churn(up);
  EXPECT_EQ(dark3.degraded.consecutive, 1u);
  EXPECT_EQ(metrics.counter("heal.unhealable").value(), 3u);
}
