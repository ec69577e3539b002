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
//
// A host can also grant fewer concurrent cores than it reports, with
// no steal time to show for it. So before the table the bench runs N
// plain threads per worker count, each spinning until its own CPU time
// reaches a fixed budget, and prints overlap = summed thread CPU time /
// wall time beside the speedup: about N where the host ran the threads
// at once, about 1 where it ran them one after another. It is reported,
// never asserted.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
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

// CPU time of the calling thread, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Summed CPU time of \p threads spinning threads over the wall time they
// took, each spinning until its own CPU time reaches 30 ms.
double overlap(std::size_t threads) {
  constexpr double kBudgetSeconds = 0.03;
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> spinners;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < threads; ++i) {
    spinners.emplace_back([&cpu, i] {
      double t = thread_cpu_seconds();
      while (t < kBudgetSeconds) t = thread_cpu_seconds();
      cpu[i] = t;
    });
  }
  for (std::thread& t : spinners) t.join();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  double sum = 0.0;
  for (const double c : cpu) sum += c;
  return sum / wall.count();
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
  const std::size_t kThreads[] = {1, 2, 4, 8};
  double overlaps[std::size(kThreads)];
  for (std::size_t i = 0; i < std::size(kThreads); ++i) {
    overlaps[i] = overlap(kThreads[i]);
  }
  std::printf("%8s %12s %14s %9s %8s %10s\n", "threads", "wall_s",
              "inst_per_s", "speedup", "overlap", "mean_cds");

  par::BatchResult baseline;
  bool ok = true;
  for (std::size_t i = 0; i < std::size(kThreads); ++i) {
    const std::size_t threads = kThreads[i];
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
    std::printf("%8zu %12.4f %14.1f %8.2fx %8.2f %10.2f\n", threads,
                result.wall_seconds,
                static_cast<double>(corpus.size()) / result.wall_seconds,
                speedup, overlaps[i], result.cds_size.mean);
  }
  std::printf("\ndeterminism across thread counts: %s\n",
              ok ? "OK (bit-identical)" : "VIOLATED");
  return ok ? 0 : 1;
}
