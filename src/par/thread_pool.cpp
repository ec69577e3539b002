#include "par/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

namespace mcds::par {

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("MCDS_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;  // hardware_concurrency() may report 0
}

ThreadPool::ThreadPool(std::size_t threads)
    : busy_ns_(threads == 0 ? default_threads() : threads) {
  threads_.reserve(busy_ns_.size());
  for (std::size_t i = 0; i < busy_ns_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
    if (pending_ > peak_pending_) peak_pending_ = pending_;
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      const auto start = std::chrono::steady_clock::now();
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> guard(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      busy_ns_[self].fetch_add(static_cast<std::uint64_t>(ns),
                               std::memory_order_relaxed);
      executed_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      if (--pending_ == 0) cv_idle_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_work_.wait(lock);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.executed = executed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.pending = pending_;
    s.peak_pending = peak_pending_;
  }
  s.busy_ns.reserve(busy_ns_.size());
  for (const auto& ns : busy_ns_) {
    s.busy_ns.push_back(ns.load(std::memory_order_relaxed));
  }
  return s;
}

void ThreadPool::publish(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  registry.gauge("par.pool.workers").set(static_cast<double>(size()));
  registry.gauge("par.pool.queue_depth").set(static_cast<double>(s.pending));
  registry.gauge("par.pool.peak_queue_depth")
      .set(static_cast<double>(s.peak_pending));
  registry.gauge("par.pool.executed").set(static_cast<double>(s.executed));
  for (std::size_t i = 0; i < s.busy_ns.size(); ++i) {
    registry.gauge("par.pool.worker" + std::to_string(i) + ".busy_ns")
        .set(static_cast<double>(s.busy_ns[i]));
  }
}

}  // namespace mcds::par
