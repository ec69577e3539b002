// Experiment E25: batch-solve thread scaling. Solves one fixed corpus
// of UDG instances with the Section IV greedy at 1/2/4/8 workers and
// prints throughput and speedup per worker count.
//
// The *checked* invariant is determinism, not speed: every outcome and
// every aggregate at T > 1 workers must be bit-identical to the
// 1-worker run (index-aligned slots + index-ordered aggregation). A
// mismatch is a real bug — a race or a scheduling-dependent reduction —
// and exits non-zero. Speedup is reported but never asserted: it is
// bounded by the host's core count (printed alongside), and a
// single-core CI box legitimately shows ~1.0x.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "par/batch_solver.hpp"
#include "par/thread_pool.hpp"
#include "udg/instance.hpp"

namespace {

using namespace mcds;

bool identical(const par::BatchResult& a, const par::BatchResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].cds != b.outcomes[i].cds) return false;
    if (a.outcomes[i].dominators != b.outcomes[i].dominators) return false;
    if (a.outcomes[i].nodes != b.outcomes[i].nodes) return false;
  }
  return a.cds_size.mean == b.cds_size.mean &&
         a.cds_size.stdev == b.cds_size.stdev &&
         a.dominators.mean == b.dominators.mean &&
         a.backbone_fraction.mean == b.backbone_fraction.mean;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t instances = 96;
  std::size_t nodes = 512;
  if (argc > 1) instances = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) nodes = std::strtoul(argv[2], nullptr, 10);

  udg::InstanceParams params;
  params.nodes = nodes;
  params.side = std::sqrt(static_cast<double>(nodes)) * 0.85;
  const auto corpus = par::make_corpus(params, instances, 42);

  std::printf("E25: batch-solve thread scaling\n");
  std::printf("corpus: %zu instances, %zu nodes each; host cores: %u\n\n",
              corpus.size(), nodes, std::thread::hardware_concurrency());
  std::printf("%8s %12s %14s %9s %10s\n", "threads", "wall_s",
              "inst_per_s", "speedup", "mean_cds");

  par::BatchResult baseline;
  bool ok = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    const par::BatchSolver solver(pool);
    const auto result = solver.solve(corpus, par::solve_greedy);
    if (threads == 1) {
      baseline = result;
    } else if (!identical(baseline, result)) {
      std::printf("FALSIFIED: %zu-thread outcomes differ from 1-thread\n",
                  threads);
      ok = false;
    }
    const double speedup =
        baseline.wall_seconds > 0.0 && result.wall_seconds > 0.0
            ? baseline.wall_seconds / result.wall_seconds
            : 1.0;
    std::printf("%8zu %12.4f %14.1f %8.2fx %10.2f\n", threads,
                result.wall_seconds,
                static_cast<double>(corpus.size()) / result.wall_seconds,
                speedup, result.cds_size.mean);
  }
  std::printf("\ndeterminism across thread counts: %s\n",
              ok ? "OK (bit-identical)" : "VIOLATED");
  return ok ? 0 : 1;
}
