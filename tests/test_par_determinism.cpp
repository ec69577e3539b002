// Batch determinism regression: the BatchSolver's output — every
// per-instance CDS and every aggregate Summary field — must be
// bit-identical at 1, 2 and 8 worker threads. This is the enforceable
// form of the pool's determinism contract (index-aligned outcome slots,
// index-ordered aggregation); a scheduling-dependent reduction or a
// data race in a solver shows up here as a corpus diff.

#include <gtest/gtest.h>

#include <vector>

#include "par/batch_solver.hpp"
#include "par/thread_pool.hpp"
#include "sim/stats.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::par::BatchOutcome;
using mcds::par::BatchResult;
using mcds::par::BatchSolver;
using mcds::par::ThreadPool;

// Bitwise equality for the aggregate: summarize() runs over the same
// index-ordered doubles on every path, so even the floating-point
// fields must match exactly — EXPECT_EQ on doubles is intentional.
void expect_summaries_identical(const mcds::sim::Summary& a,
                                const mcds::sim::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stdev, b.stdev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.ci95, b.ci95);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

void expect_results_identical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].cds, b.outcomes[i].cds) << "instance " << i;
    EXPECT_EQ(a.outcomes[i].dominators, b.outcomes[i].dominators)
        << "instance " << i;
    EXPECT_EQ(a.outcomes[i].nodes, b.outcomes[i].nodes) << "instance " << i;
  }
  expect_summaries_identical(a.cds_size, b.cds_size);
  expect_summaries_identical(a.dominators, b.dominators);
  expect_summaries_identical(a.backbone_fraction, b.backbone_fraction);
}

BatchResult run(const std::vector<mcds::udg::UdgInstance>& corpus,
                std::size_t threads, const mcds::par::BatchSolveFn& solver) {
  ThreadPool pool(threads);
  const BatchSolver batch(pool);
  return batch.solve(corpus, solver);
}

TEST(ParDeterminism, GreedyCorpusIsIdenticalAt1_2_8Threads) {
  // 200 instances, the corpus size pinned by ISSUE: big enough that
  // every worker interleaving actually occurs at 8 threads.
  const auto corpus = mcds::par::make_corpus(
      {.nodes = 60, .side = 7.0}, 200, /*seed0=*/1000);
  ASSERT_EQ(corpus.size(), 200u);
  const auto r1 = run(corpus, 1, mcds::par::solve_greedy);
  const auto r2 = run(corpus, 2, mcds::par::solve_greedy);
  const auto r8 = run(corpus, 8, mcds::par::solve_greedy);
  expect_results_identical(r1, r2);
  expect_results_identical(r1, r8);
  // Sanity: the corpus actually produced nontrivial backbones.
  EXPECT_EQ(r1.cds_size.count, 200u);
  EXPECT_GT(r1.cds_size.mean, 1.0);
}

TEST(ParDeterminism, WafCorpusIsIdenticalAcrossThreadCounts) {
  const auto corpus = mcds::par::make_corpus(
      {.nodes = 50, .side = 6.0}, 40, /*seed0=*/7000);
  const auto r1 = run(corpus, 1, mcds::par::solve_waf);
  const auto r8 = run(corpus, 8, mcds::par::solve_waf);
  expect_results_identical(r1, r8);
}

TEST(ParDeterminism, RepeatedRunsOnOnePoolAreIdentical) {
  // Reusing a warm pool (non-zero executed and busy-time counters) must
  // not leak into results.
  const auto corpus = mcds::par::make_corpus(
      {.nodes = 40, .side = 5.0}, 30, /*seed0=*/4000);
  ThreadPool pool(4);
  const BatchSolver batch(pool);
  const auto a = batch.solve(corpus, mcds::par::solve_greedy);
  const auto b = batch.solve(corpus, mcds::par::solve_greedy);
  expect_results_identical(a, b);
}

// Error containment: a throwing solve marks only its own slot failed
// (structured error, no rethrow) and leaves every other slot — and the
// corpus summaries, which skip failed slots — bit-identical to a clean
// run, at any thread count.
TEST(ParDeterminism, ThrownJobPoisonsOnlyItsSlotAt1_2_8Threads) {
  const auto corpus = mcds::par::make_corpus(
      {.nodes = 30, .side = 4.0}, 16, /*seed0=*/2000);
  const auto failing = [](const mcds::udg::UdgInstance& inst) -> BatchOutcome {
    if (inst.seed == 2003 || inst.seed == 2010) {
      throw std::runtime_error("seed " + std::to_string(inst.seed));
    }
    return mcds::par::solve_greedy(inst);
  };

  // The clean reference: same corpus, same solver, no failures — but
  // with the two poisoned instances removed from the summary inputs so
  // the aggregate comparison below is apples-to-apples.
  std::vector<mcds::udg::UdgInstance> clean_corpus;
  for (const auto& inst : corpus) {
    if (inst.seed != 2003 && inst.seed != 2010) clean_corpus.push_back(inst);
  }
  const auto clean = run(clean_corpus, 1, mcds::par::solve_greedy);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto r = run(corpus, threads, failing);
    ASSERT_EQ(r.outcomes.size(), corpus.size()) << threads << " threads";
    EXPECT_EQ(r.failed, 2u) << threads << " threads";
    std::size_t clean_i = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const auto& o = r.outcomes[i];
      if (corpus[i].seed == 2003 || corpus[i].seed == 2010) {
        EXPECT_TRUE(o.failed) << "instance " << i;
        EXPECT_EQ(o.error, "seed " + std::to_string(corpus[i].seed));
        EXPECT_TRUE(o.cds.empty()) << "failed slot must not carry a result";
        EXPECT_EQ(o.nodes, corpus[i].graph.num_nodes());
      } else {
        EXPECT_FALSE(o.failed) << "instance " << i;
        EXPECT_TRUE(o.error.empty()) << "instance " << i;
        EXPECT_EQ(o.cds, clean.outcomes[clean_i].cds)
            << "instance " << i << " at " << threads << " threads";
        EXPECT_EQ(o.dominators, clean.outcomes[clean_i].dominators);
        ++clean_i;
      }
    }
    // Summaries skip failed slots, so they match the clean reference
    // exactly (bitwise — same index-ordered doubles on both paths).
    expect_summaries_identical(r.cds_size, clean.cds_size);
    expect_summaries_identical(r.dominators, clean.dominators);
    expect_summaries_identical(r.backbone_fraction, clean.backbone_fraction);
  }
}

}  // namespace
