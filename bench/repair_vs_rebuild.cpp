// Experiment E18 (maintenance ablation): under mobility, compare
// rebuilding the CDS from scratch each epoch against locally repairing
// the previous one. Repair should drastically cut backbone churn (the
// operational cost: route invalidations, state transfer) at a modest
// size premium.

#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "core/greedy_connect.hpp"
#include "core/repair.hpp"
#include "core/validate.hpp"
#include "graph/traversal.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"
#include "udg/mobility.hpp"

namespace {

std::size_t churn(const std::vector<mcds::graph::NodeId>& before,
                  const std::vector<mcds::graph::NodeId>& after) {
  std::vector<mcds::graph::NodeId> entered;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(entered));
  return entered.size();
}

}  // namespace

int main() {
  using namespace mcds;
  bench::banner("E18 / repair vs rebuild",
                "backbone churn and size under mobility");
  bench::Falsifier falsifier;

  sim::Table table({"step size", "epochs", "rebuild size", "repair size",
                    "rebuild churn", "repair churn", "churn cut (%)"});
  for (const double step : {0.1, 0.2, 0.4}) {
    sim::Rng rng(31337);
    auto pos = udg::deploy_uniform_square(220, 9.0, rng);
    std::vector<graph::NodeId> rebuild_prev, repair_prev;
    sim::Accumulator rebuild_size, repair_size, rebuild_churn, repair_churn;
    std::size_t epochs = 0;
    for (std::size_t epoch = 0; epoch < 40; ++epoch) {
      for (auto& p : pos) {
        p.x = std::clamp(p.x + rng.uniform(-step, step), 0.0, 9.0);
        p.y = std::clamp(p.y + rng.uniform(-step, step), 0.0, 9.0);
      }
      const auto g = udg::build_udg(pos);
      if (!graph::is_connected(g)) continue;  // transient fragmentation
      ++epochs;

      const auto rebuilt = core::greedy_cds(g, 0).cds;
      falsifier.check(core::is_cds(g, rebuilt), "rebuild must be a CDS");
      const auto repaired =
          repair_prev.empty() ? core::RepairResult{rebuilt, 0, 0, 0}
                              : core::repair_cds(g, repair_prev);
      falsifier.check(core::is_cds(g, repaired.cds),
                      "repair must be a CDS");

      if (!rebuild_prev.empty()) {
        rebuild_churn.add(static_cast<double>(churn(rebuild_prev, rebuilt)));
        repair_churn.add(
            static_cast<double>(churn(repair_prev, repaired.cds)));
        rebuild_size.add(static_cast<double>(rebuilt.size()));
        repair_size.add(static_cast<double>(repaired.cds.size()));
      }
      rebuild_prev = rebuilt;
      repair_prev = repaired.cds;
    }
    const double cut = 100.0 *
                       (rebuild_churn.mean() - repair_churn.mean()) /
                       std::max(1.0, rebuild_churn.mean());
    table.row()
        .add(step, 1)
        .add(epochs)
        .add(rebuild_size.mean(), 1)
        .add(repair_size.mean(), 1)
        .add(rebuild_churn.mean(), 1)
        .add(repair_churn.mean(), 1)
        .add(cut, 1);
  }
  table.print(std::cout);
  std::cout << "(Repair keeps the previous backbone wherever possible; "
               "its size premium is the price of stability. A periodic "
               "full rebuild can reset the drift.)\n";

  // Same comparison under random-waypoint mobility (correlated motion —
  // the standard MANET model) instead of i.i.d. jitter.
  std::cout << "\nRandom-waypoint mobility (speed band per tick):\n";
  sim::Table wp_table({"speed band", "epochs", "rebuild size",
                       "repair size", "rebuild churn", "repair churn"});
  struct Band {
    double lo, hi;
  };
  for (const Band band : {Band{0.02, 0.10}, Band{0.05, 0.25},
                          Band{0.10, 0.50}}) {
    udg::WaypointParams wp;
    wp.side = 9.0;
    wp.min_speed = band.lo;
    wp.max_speed = band.hi;
    udg::RandomWaypoint model(220, wp, 2025);
    std::vector<graph::NodeId> rebuild_prev, repair_prev;
    sim::Accumulator rebuild_size, repair_size, rebuild_churn, repair_churn;
    std::size_t epochs = 0;
    for (std::size_t tick = 0; tick < 40; ++tick) {
      model.step();
      const auto g = udg::build_udg(model.positions());
      if (!graph::is_connected(g)) continue;
      ++epochs;
      const auto rebuilt = core::greedy_cds(g, 0).cds;
      const auto repaired =
          repair_prev.empty() ? core::RepairResult{rebuilt, 0, 0, 0}
                              : core::repair_cds(g, repair_prev);
      falsifier.check(core::is_cds(g, rebuilt), "waypoint rebuild CDS");
      falsifier.check(core::is_cds(g, repaired.cds), "waypoint repair CDS");
      if (!rebuild_prev.empty()) {
        rebuild_churn.add(static_cast<double>(churn(rebuild_prev, rebuilt)));
        repair_churn.add(
            static_cast<double>(churn(repair_prev, repaired.cds)));
        rebuild_size.add(static_cast<double>(rebuilt.size()));
        repair_size.add(static_cast<double>(repaired.cds.size()));
      }
      rebuild_prev = rebuilt;
      repair_prev = repaired.cds;
    }
    wp_table.row()
        .add(bench::band_label(band.lo, band.hi, 2))
        .add(epochs)
        .add(rebuild_size.mean(), 1)
        .add(repair_size.mean(), 1)
        .add(rebuild_churn.mean(), 1)
        .add(repair_churn.mean(), 1);
  }
  wp_table.print(std::cout);

  falsifier.report("repair_vs_rebuild");
  return falsifier.exit_code();
}
