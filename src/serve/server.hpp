#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dyn/dynamic_cds.hpp"
#include "obs/obs.hpp"
#include "par/batch_solver.hpp"
#include "par/thread_pool.hpp"
#include "serve/admission_queue.hpp"
#include "serve/checkpoint.hpp"
#include "serve/overload.hpp"
#include "serve/serve.hpp"
#include "sim/stats.hpp"

/// \file server.hpp
/// The overload-safe solve server. One Server owns:
///
///   admission   — submit() validates, sheds (under level-3 overload),
///                 and try_pushes into the bounded AdmissionQueue;
///                 a full queue is back-pressure (kRejected), never
///                 unbounded buffering.
///   batcher     — one thread draining the queue in EDF order into
///                 par::BatchSolver batches; the overload controller is
///                 observed once per loop from queue depth and p95.
///   watchdog    — one thread converting any in-flight request whose
///                 deadline has passed into a structured kTimeout
///                 (first-completion-wins against the solver) and
///                 raising its cooperative cancel flag. This is what
///                 makes a hung or slow solve a per-request error
///                 instead of a server-wide stall.
///   churn state — an optional dyn::DynamicCds engine serving churn
///                 requests, with an event-sourced journal checkpointed
///                 crash-safely by a periodic checkpointer thread.
///
/// Completion invariants (the chaos suite enforces these):
///   * every submitted request receives exactly one terminal response
///     (zero leaked after drain);
///   * no response is kOk when the server's clock is past the request's
///     deadline at completion time — enforced structurally: the
///     completion path re-checks the clock and downgrades to kTimeout;
///   * overload level transitions are ±1 steps (see OverloadController).

namespace mcds::serve {

struct ServerParams {
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 8;
  std::size_t threads = 0;  ///< solver pool size (0 = auto)
  /// Batcher poll / watchdog scan period (real time).
  Duration poll = std::chrono::milliseconds(1);
  OverloadParams overload;
  /// Virtualized time source for deadline logic; null = steady_clock.
  Clock clock;

  /// Initial population of the dynamic engine; empty = churn requests
  /// are kInvalid.
  std::vector<geom::Vec2> initial_points;
  dyn::DynParams dyn;

  /// Crash-safe checkpointing of the churn engine: every
  /// checkpoint_every (real time) to checkpoint_path. Disabled when
  /// the path is empty or the period is zero.
  std::string checkpoint_path;
  Duration checkpoint_every{};

  /// Test seam: replaces the per-request tier solve when set (fault
  /// injection, latency shaping). Receives the request, the tier the
  /// overload controller chose, and the request's shared state (for
  /// cooperative-cancel polling). May throw — the containment path
  /// turns that into kError.
  std::function<par::BatchOutcome(const Request&, Tier, SharedState&)>
      solve_hook;
};

/// Monotone totals, exact: counted once per request at the single
/// accounting point (registry retirement).
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeout = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t invalid = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded = 0;  ///< kOk responses served below request
  std::uint64_t checkpoints = 0;
  std::size_t inflight = 0;  ///< submitted, not yet terminal

  /// Requests whose outcome is unaccounted for. Zero after drain() —
  /// the soak and chaos suites assert this.
  [[nodiscard]] std::uint64_t leaked() const noexcept {
    return submitted - ok - rejected - shed - timeout - cancelled -
           invalid - errors - inflight;
  }
};

class Server {
 public:
  /// Starts the batcher/watchdog (and checkpointer, if configured)
  /// threads. \p obs (null sinks by default) receives "serve.*"
  /// counters, the queue-depth gauge and per-tier latency histograms.
  explicit Server(ServerParams params, const obs::Obs& obs = {});

  /// shutdown()s (drain-less: queued work is cancelled, not solved).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one request. Always returns a valid Ticket; a request the
  /// server will not run (invalid, shed, rejected, draining) is
  /// completed immediately with the corresponding status.
  Ticket submit(Request req);

  /// Stops admitting, then blocks until every in-flight request has a
  /// terminal response (deadlines bound this) and stops the threads.
  void drain();

  /// Stops admitting, cancels all queued work, joins the threads.
  void shutdown();

  /// Forces a checkpoint now (also the SIGTERM path's last act).
  /// Throws if no engine or no checkpoint_path is configured. Safe to
  /// call from several threads while the checkpointer runs: saves are
  /// serialized, so the epoch on disk never goes backwards.
  void checkpoint_now();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] std::size_t overload_level() const;
  [[nodiscard]] std::vector<OverloadTransition> overload_transitions() const;
  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_relaxed);
  }

  /// The churn engine (nullptr when initial_points was empty). The
  /// engine is only mutated by the batcher thread; read epoch()/cds()
  /// between requests or after drain for stable values.
  [[nodiscard]] const dyn::DynamicCds* engine() const {
    return engine_.get();
  }
  [[nodiscard]] std::size_t journal_size() const;

 private:
  struct Tracked {
    std::shared_ptr<SharedState> state;
    TimePoint deadline;
    std::uint64_t id = 0;
    Tier tier = Tier::kKm11;
  };

  [[nodiscard]] TimePoint now() const { return params_.clock(); }
  void finish_now(const std::shared_ptr<SharedState>& state,
                  std::uint64_t id, Status status, Tier tier);
  void batcher_loop();
  void watchdog_loop();
  void checkpoint_loop();
  void run_batch(std::vector<QueueItem> batch);
  void run_churn(QueueItem& item);
  void retire_done_locked() const;
  [[nodiscard]] CheckpointData snapshot_checkpoint();
  /// Snapshots and saves under checkpoint_mu_, then counts the save.
  void write_checkpoint();
  void account(Status s, bool degraded) const;

  ServerParams params_;
  obs::Obs obs_;
  AdmissionQueue queue_;
  par::ThreadPool pool_;
  par::BatchSolver batch_;
  OverloadController overload_;
  mutable std::mutex overload_mu_;  ///< controller written by batcher only

  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> next_id_{1};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  /// Every live request, registered at submit; the watchdog scans it
  /// for deadline enforcement and retires terminal entries into
  /// stats_ (the single accounting point).
  mutable std::mutex reg_mu_;
  mutable std::vector<Tracked> registry_;  ///< stats() retires lazily
  mutable ServerStats stats_;

  /// Completion-latency feed for the overload controller's p95 signal.
  mutable std::mutex lat_mu_;
  sim::Accumulator latency_;

  /// Churn engine + journal; batcher-thread writes, checkpointer reads
  /// under the same mutex.
  mutable std::mutex engine_mu_;
  std::unique_ptr<dyn::DynamicCds> engine_;
  std::vector<geom::Vec2> base_points_;
  std::vector<ChurnOp> journal_;

  /// Held across snapshot + save by every checkpoint writer (the
  /// checkpointer thread and checkpoint_now callers). Writers share
  /// "<path>.tmp", and a save must not publish an epoch older than the
  /// one already on disk, so saves run one at a time in snapshot order.
  std::mutex checkpoint_mu_;

  std::thread batcher_;
  std::thread watchdog_;
  std::thread checkpointer_;

  obs::Counter* c_status_[7] = {};  ///< indexed by Status
  obs::Counter* c_degraded_ = nullptr;
  obs::Counter* c_checkpoints_ = nullptr;
  obs::Gauge* g_depth_ = nullptr;
  obs::Gauge* g_level_ = nullptr;
  obs::Histogram* h_latency_[3] = {};  ///< indexed by served Tier
};

/// The real tier solver (used when no solve_hook is set): (2,2)- and
/// (1,1)-CDS via core::kmcds, greedy via par::solve_greedy. \p trace
/// (when non-null and the tier has phases) receives the connector /
/// augmenter pick order — the "full trace" the overload controller
/// strips at level >= 2.
[[nodiscard]] par::BatchOutcome solve_tier(const udg::UdgInstance& inst,
                                           Tier tier,
                                           std::vector<NodeId>* trace);

}  // namespace mcds::serve
