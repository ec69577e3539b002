#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

/// \file thread_pool.hpp
/// A fixed-size thread pool over one FIFO task queue: submit() appends
/// to the back and the next free worker pops the front. Which worker
/// runs a task is left to the scheduler. Determinism of *results* is the
/// caller's contract: parallel_for and BatchSolver write every task's
/// output to a slot indexed by the task's position, so aggregation order
/// never depends on execution interleaving — the same inputs produce
/// bit-identical outputs at any worker count.
///
/// Instrumentation is exported on demand via publish(): pool queue
/// depth, the executed task count, and per-worker busy time
/// land in an obs::MetricsRegistry as "par.pool.*" gauges. The pool
/// only touches the registry inside publish() (callers invoke it from
/// one thread at a quiesce point); the hot-path counters are atomics.

namespace mcds::par {

class ThreadPool {
 public:
  /// Spawns \p threads workers. 0 means "auto": the MCDS_THREADS
  /// environment override if set, otherwise hardware_concurrency(),
  /// which is itself guarded — a platform reporting 0 cores yields one
  /// worker, never zero.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Appends \p task to the back of the queue. Tasks should not let
  /// exceptions escape; if one does, the first escaped exception is
  /// rethrown by wait_idle() as a safety net (use parallel_for for
  /// deterministic per-index exception reporting).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first escaped task exception, if any.
  void wait_idle();

  /// Point-in-time pool statistics (read when quiescent for exactness).
  struct Stats {
    std::uint64_t executed = 0;           ///< tasks run to completion
    std::size_t pending = 0;              ///< submitted, not yet finished
    std::size_t peak_pending = 0;         ///< high-water queue depth
    std::vector<std::uint64_t> busy_ns;   ///< per-worker task time
  };
  [[nodiscard]] Stats stats() const;

  /// Writes the stats as "par.pool.*" gauges: queue_depth,
  /// peak_queue_depth, executed, workers, and per-worker
  /// worker<i>.busy_ns. Call from one thread, ideally when idle.
  void publish(obs::MetricsRegistry& registry) const;

  /// The worker count an auto-configured pool would use: MCDS_THREADS
  /// (when set to a positive integer) > hardware_concurrency() > 1.
  [[nodiscard]] static std::size_t default_threads();

 private:
  void worker_loop(std::size_t self);

  std::vector<std::atomic<std::uint64_t>> busy_ns_;  ///< per worker
  std::vector<std::thread> threads_;
  mutable std::mutex mu_;            ///< guards queue_ + stop flag
  std::condition_variable cv_work_;  ///< task available or stopping
  std::condition_variable cv_idle_;  ///< pending_ hit zero
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> executed_{0};
  std::exception_ptr first_error_;  ///< guarded by mu_
};

/// Splits [0, n) into ordered chunks of at most \p grain indices and
/// runs `fn(begin, end, chunk_index)` for each on the pool. Blocks until
/// every chunk finishes. Chunk boundaries depend only on (n, grain), so
/// per-chunk outputs indexed by chunk_index merge deterministically at
/// any worker count. If chunks throw, the exception from the *lowest*
/// chunk index is rethrown (again independent of scheduling). A nullptr
/// pool or a single-worker shortcut runs inline on the caller.
template <class Fn>
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  Fn&& fn) {
  if (grain == 0) grain = 1;
  const std::size_t chunks = n == 0 ? 0 : (n - 1) / grain + 1;
  if (chunks == 0) return;
  if (pool == nullptr || pool->size() <= 1 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * grain;
      fn(begin, std::min(n, begin + grain), c);
    }
    return;
  }
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
  } join{.mu = {}, .cv = {}, .remaining = chunks, .errors = {}};
  join.errors.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    pool->submit([&join, &fn, c, grain, n] {
      try {
        const std::size_t begin = c * grain;
        fn(begin, std::min(n, begin + grain), c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join.mu);
        join.errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join.mu);
      if (--join.remaining == 0) join.cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(join.mu);
  join.cv.wait(lock, [&join] { return join.remaining == 0; });
  for (const auto& err : join.errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace mcds::par
