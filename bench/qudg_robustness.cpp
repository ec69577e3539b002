// Experiment E17 (model robustness): the paper's guarantees are proven
// for exact unit-disk graphs. Real radios have a gray zone — links
// between r_min and r_max exist probabilistically (quasi-UDG). The
// two-phased constructions are pure graph algorithms, so they still
// emit *valid* CDSs on quasi-UDGs; this bench measures how their sizes
// and the greedy-vs-WAF gap respond as the gray zone widens.

#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "core/greedy_connect.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "graph/traversal.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "udg/deployment.hpp"
#include "udg/qudg.hpp"

int main() {
  using namespace mcds;
  bench::banner("E17 / quasi-UDG robustness",
                "CDS sizes as the link gray zone widens");
  bench::Falsifier falsifier;

  const std::size_t n = 250;
  const double side = 10.0;
  sim::Table table({"gray zone [r_min, r_max]", "connected draws",
                    "mean links", "WAF |CDS|", "greedy |CDS|",
                    "greedy saves (%)"});
  struct Band {
    double r_min, r_max;
  };
  const Band bands[] = {
      {1.00, 1.00},  // exact UDG baseline
      {0.90, 1.10}, {0.75, 1.25}, {0.60, 1.40}, {0.50, 1.60},
  };
  for (const Band band : bands) {
    sim::Accumulator links, waf_size, greedy_size;
    std::size_t connected = 0;
    for (std::uint64_t t = 0; t < 25; ++t) {
      sim::Rng deploy_rng = sim::Rng::child(99, t);
      const auto pts = udg::deploy_uniform_square(n, side, deploy_rng);
      sim::Rng link_rng = sim::Rng::child(777, t);
      const auto g =
          udg::build_quasi_udg(pts, band.r_min, band.r_max, link_rng);
      if (!graph::is_connected(g)) continue;
      ++connected;
      const auto waf = core::waf_cds(g, 0);
      const auto greedy = core::greedy_cds(g, 0);
      falsifier.check(core::is_cds(g, waf.cds),
                      "WAF must stay valid on quasi-UDGs");
      falsifier.check(core::is_cds(g, greedy.cds),
                      "greedy must stay valid on quasi-UDGs");
      links.add(static_cast<double>(g.num_edges()));
      waf_size.add(static_cast<double>(waf.cds.size()));
      greedy_size.add(static_cast<double>(greedy.cds.size()));
    }
    const double saves =
        100.0 * (waf_size.mean() - greedy_size.mean()) / waf_size.mean();
    table.row()
        .add(bench::band_label(band.r_min, band.r_max, 2))
        .add(connected)
        .add(links.mean(), 0)
        .add(waf_size.mean(), 1)
        .add(greedy_size.mean(), 1)
        .add(saves, 1);
  }
  table.print(std::cout);
  std::cout << "(Validity is structural — the algorithms never assumed "
               "geometry — while the size guarantees formally apply only "
               "to exact UDGs.)\n";

  falsifier.report("qudg_robustness");
  return falsifier.exit_code();
}
