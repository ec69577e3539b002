// ThreadPool and parallel_for contract tests: every submitted task runs
// exactly once, stats account for all of them, exceptions surface
// deterministically (lowest chunk index), callers on other threads can
// share one pool, and the auto-sizing chain
// (MCDS_THREADS > hardware_concurrency > 1) never yields zero workers.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "par/batch_solver.hpp"
#include "par/thread_pool.hpp"

namespace {

using mcds::par::parallel_for;
using mcds::par::ThreadPool;

TEST(ParPool, RunsEveryTaskOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.executed, 200u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.peak_pending, 1u);
  EXPECT_EQ(stats.busy_ns.size(), 4u);
}

TEST(ParPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // nothing submitted: must not block
  EXPECT_EQ(pool.stats().executed, 0u);
}

TEST(ParPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(&pool, n, 7,
               [&hits](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i) {
                   hits[i].fetch_add(1, std::memory_order_relaxed);
                 }
               });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParPool, ParallelForChunkIndicesAreDeterministic) {
  // Chunk boundaries must be a pure function of (n, grain), independent
  // of the pool: record them through a pool and inline, compare.
  const auto boundaries = [](ThreadPool* pool) {
    std::vector<std::array<std::size_t, 3>> out(8);
    parallel_for(pool, 100, 13,
                 [&out](std::size_t begin, std::size_t end,
                        std::size_t chunk) {
                   out[chunk] = {begin, end, chunk};
                 });
    return out;
  };
  ThreadPool pool(4);
  EXPECT_EQ(boundaries(&pool), boundaries(nullptr));
}

TEST(ParPool, ParallelForRethrowsLowestChunkError) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      parallel_for(&pool, 64, 8,
                   [](std::size_t, std::size_t, std::size_t chunk) {
                     if (chunk == 2 || chunk == 5) {
                       throw std::runtime_error("chunk " +
                                                std::to_string(chunk));
                     }
                   });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 2");
    }
  }
}

TEST(ParPool, ParallelForHandlesEmptyAndZeroGrain) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 0, 4,
               [&calls](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // grain 0 is clamped to 1.
  std::vector<int> hits(5, 0);
  parallel_for(nullptr, hits.size(), 0,
               [&hits](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i) ++hits[i];
               });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 5);
}

TEST(ParPool, DefaultThreadsIsPositiveAndHonorsEnv) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ::setenv("MCDS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ThreadPool pool;  // auto-sized: must pick up the override
  EXPECT_EQ(pool.size(), 3u);
  ::setenv("MCDS_THREADS", "0", 1);  // invalid: falls through to hardware
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ::setenv("MCDS_THREADS", "junk", 1);
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ::unsetenv("MCDS_THREADS");
}

TEST(ParPool, PublishExportsGauges) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  mcds::obs::MetricsRegistry registry;
  pool.publish(registry);
  EXPECT_EQ(registry.gauge("par.pool.workers").value(), 2.0);
  EXPECT_EQ(registry.gauge("par.pool.executed").value(), 32.0);
  EXPECT_EQ(registry.gauge("par.pool.queue_depth").value(), 0.0);
  EXPECT_GE(registry.gauge("par.pool.peak_queue_depth").value(), 1.0);
}

TEST(ParPool, SingleWorkerPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ParPool, ConcurrentCallersShareOnePool) {
  // Four caller threads submit to one 4-worker pool at once, so their
  // tasks interleave in the shared queue; each caller must still get
  // exactly its inline (no-pool) result, index for index.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRange = 5000;
  const auto mix = [](std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  const auto fill = [&mix](ThreadPool* pool, std::size_t caller) {
    std::vector<std::uint64_t> out(kRange);
    parallel_for(pool, kRange, 37,
                 [&out, &mix, caller](std::size_t begin, std::size_t end,
                                      std::size_t) {
                   for (std::size_t i = begin; i < end; ++i) {
                     out[i] = mix(caller * kRange + i);
                   }
                 });
    return out;
  };
  std::vector<std::vector<mcds::udg::UdgInstance>> corpora;
  std::vector<std::vector<std::uint64_t>> want_fill;
  std::vector<std::vector<mcds::par::BatchOutcome>> want_batch(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    corpora.push_back(mcds::par::make_corpus({.nodes = 50, .side = 6.0}, 24,
                                             /*seed0=*/6000 + 100 * c));
    want_fill.push_back(fill(nullptr, c));
    for (const auto& inst : corpora[c]) {
      want_batch[c].push_back(mcds::par::solve_greedy(inst));
    }
  }

  ThreadPool pool(4);
  const mcds::par::BatchSolver batch(pool);
  std::vector<std::vector<std::uint64_t>> got_fill(kCallers);
  std::vector<mcds::par::BatchResult> got_batch(kCallers);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      got_fill[c] = fill(&pool, c);
      got_batch[c] = batch.solve(corpora[c], mcds::par::solve_greedy);
    });
  }
  for (auto& t : callers) t.join();

  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(got_fill[c], want_fill[c]) << "caller " << c;
    ASSERT_EQ(got_batch[c].outcomes.size(), want_batch[c].size());
    EXPECT_EQ(got_batch[c].failed, 0u) << "caller " << c;
    for (std::size_t i = 0; i < want_batch[c].size(); ++i) {
      EXPECT_EQ(got_batch[c].outcomes[i].cds, want_batch[c][i].cds)
          << "caller " << c << " instance " << i;
      EXPECT_EQ(got_batch[c].outcomes[i].dominators,
                want_batch[c][i].dominators)
          << "caller " << c << " instance " << i;
      EXPECT_EQ(got_batch[c].outcomes[i].nodes, want_batch[c][i].nodes)
          << "caller " << c << " instance " << i;
    }
  }
  // Every caller's chunks and instances ran exactly once on the pool. A
  // caller returns once its last task has signalled, which can be before
  // that worker has counted it, so settle the pool before reading stats.
  pool.wait_idle();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.executed, kCallers * ((kRange - 1) / 37 + 1 + 24));
}

}  // namespace
