#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kmcds.hpp"

namespace mcds::serve {

namespace {
constexpr double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

par::BatchOutcome solve_tier(const udg::UdgInstance& inst, Tier tier,
                             std::vector<NodeId>* trace) {
  if (tier == Tier::kGreedy) return par::solve_greedy(inst);
  core::KmParams kp;
  kp.k = tier == Tier::kKm22 ? 2 : 1;
  kp.m = tier == Tier::kKm22 ? 2 : 1;
  auto r = core::kmcds(inst.graph, kp, 0);
  par::BatchOutcome o;
  o.cds = std::move(r.backbone);
  o.dominators = r.dominators.size();
  o.nodes = inst.graph.num_nodes();
  if (trace) {
    trace->clear();
    trace->insert(trace->end(), r.connectors.begin(), r.connectors.end());
    trace->insert(trace->end(), r.augmenters.begin(), r.augmenters.end());
  }
  return o;
}

Server::Server(ServerParams params, const obs::Obs& obs)
    : params_(std::move(params)),
      obs_(obs),
      queue_(params_.queue_capacity),
      pool_(params_.threads),
      batch_(pool_, obs),
      overload_(params_.overload) {
  if (!params_.clock) {
    params_.clock = [] { return std::chrono::steady_clock::now(); };
  }
  if (!params_.initial_points.empty()) {
    base_points_ = params_.initial_points;
    engine_ =
        std::make_unique<dyn::DynamicCds>(base_points_, params_.dyn, obs_);
  }
  for (std::uint8_t s = 0; s < 7; ++s) {
    c_status_[s] = obs_.counter(std::string("serve.") +
                                to_string(static_cast<Status>(s)));
  }
  c_degraded_ = obs_.counter("serve.degraded");
  c_checkpoints_ = obs_.counter("serve.checkpoints");
  g_depth_ = obs_.gauge("serve.queue_depth");
  g_level_ = obs_.gauge("serve.overload_level");
  for (std::uint8_t t = 0; t < 3; ++t) {
    h_latency_[t] = obs_.histogram(std::string("serve.latency.") +
                                   to_string(static_cast<Tier>(t)));
  }
  batcher_ = std::thread(&Server::batcher_loop, this);
  watchdog_ = std::thread(&Server::watchdog_loop, this);
  if (!params_.checkpoint_path.empty() &&
      params_.checkpoint_every > Duration{} && engine_) {
    checkpointer_ = std::thread(&Server::checkpoint_loop, this);
  }
}

Server::~Server() { shutdown(); }

void Server::finish_now(const std::shared_ptr<SharedState>& state,
                        std::uint64_t id, Status status, Tier tier) {
  Response r;
  r.id = id;
  r.status = status;
  r.tier = tier;
  state->complete(std::move(r));
}

Ticket Server::submit(Request req) {
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = req.id;
  const Tier tier = req.tier;
  auto state = std::make_shared<SharedState>();
  Ticket ticket(state);
  const TimePoint at = now();
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    ++stats_.submitted;
    registry_.push_back({state, req.deadline, id, tier});
  }

  // Admission decision ladder: structural validity first, then accept
  // state, then overload shedding, then the bounded queue.
  const bool empty_solve = !req.is_churn() &&
                           req.instance.graph.num_nodes() == 0;
  if (empty_solve || (req.is_churn() && !engine_) || req.deadline <= at) {
    finish_now(state, id, Status::kInvalid, tier);
    return ticket;
  }
  if (!accepting_.load(std::memory_order_relaxed)) {
    finish_now(state, id, Status::kRejected, tier);
    return ticket;
  }
  bool shed_low = false;
  {
    std::lock_guard<std::mutex> lk(overload_mu_);
    shed_low = overload_.shed_low_priority();
  }
  if (shed_low && req.priority == Priority::kLow) {
    finish_now(state, id, Status::kShed, tier);
    return ticket;
  }
  QueueItem item;
  item.req = std::move(req);
  item.state = state;
  item.seqno = id;
  item.submitted = at;
  if (!queue_.try_push(std::move(item))) {
    finish_now(state, id, Status::kRejected, tier);
    return ticket;
  }
  wake_cv_.notify_one();
  return ticket;
}

void Server::batcher_loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait_for(lk, params_.poll, [&] {
        return !running_.load(std::memory_order_relaxed) ||
               queue_.depth() > 0;
      });
    }
    const bool running = running_.load(std::memory_order_relaxed);
    const std::size_t depth = queue_.depth();
    if (!running && depth == 0) break;

    // One controller observation per loop: queue pressure plus the p95
    // completion latency seen so far.
    double p95 = 0.0;
    {
      std::lock_guard<std::mutex> lk(lat_mu_);
      if (latency_.count() >= 8) p95 = latency_.p95();
    }
    std::size_t level = 0;
    bool shed_now = false;
    {
      std::lock_guard<std::mutex> lk(overload_mu_);
      level = overload_.observe(
          static_cast<double>(depth) /
              static_cast<double>(queue_.capacity()),
          p95);
      shed_now = overload_.shed_low_priority();
    }
    if (g_depth_) g_depth_->set(static_cast<double>(depth));
    if (g_level_) g_level_->set(static_cast<double>(level));
    if (shed_now) queue_.shed(Priority::kLow, depth);

    auto batch = queue_.pop_batch(params_.max_batch, now());
    if (!batch.empty()) run_batch(std::move(batch));
  }
}

void Server::run_churn(QueueItem& item) {
  Response r;
  r.id = item.req.id;
  r.tier = item.req.tier;
  {
    std::lock_guard<std::mutex> lk(engine_mu_);
    try {
      for (const ChurnOp& op : item.req.ops) {
        apply_churn_op(*engine_, op);
        // Journal only what was actually applied: a throwing op leaves
        // the journal equal to the engine's real history.
        journal_.push_back(op);
      }
      r.status = Status::kOk;
      r.epoch = engine_->epoch();
      r.cds = engine_->cds();
    } catch (const std::exception& e) {
      r.status = Status::kError;
      r.error = e.what();
      r.epoch = engine_->epoch();
    }
  }
  const TimePoint done = now();
  if (done > item.req.deadline && r.status == Status::kOk) {
    // Structural no-success-past-deadline: the churn *applied* (it is
    // server state), but the response must not claim an in-deadline
    // success.
    r.status = Status::kTimeout;
    r.cds.clear();
  }
  r.latency_seconds = seconds_between(item.submitted, done);
  if (item.state->complete(std::move(r))) {
    std::lock_guard<std::mutex> lk(lat_mu_);
    latency_.add(seconds_between(item.submitted, done));
  }
}

void Server::run_batch(std::vector<QueueItem> batch) {
  // Churn requests mutate shared engine state: apply them serially in
  // admission order (deterministic journal), then batch the solves.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const QueueItem& a, const QueueItem& b) {
                     return a.seqno < b.seqno;
                   });
  std::vector<QueueItem> solves;
  solves.reserve(batch.size());
  for (QueueItem& item : batch) {
    if (item.req.is_churn()) {
      run_churn(item);
    } else {
      solves.push_back(std::move(item));
    }
  }
  if (solves.empty()) return;

  // Snapshot one degradation decision per batch.
  std::vector<Tier> served(solves.size());
  bool strip = false;
  {
    std::lock_guard<std::mutex> lk(overload_mu_);
    for (std::size_t i = 0; i < solves.size(); ++i) {
      served[i] = overload_.cap_tier(solves[i].req.tier);
    }
    strip = overload_.strip_trace();
  }

  std::vector<udg::UdgInstance> corpus;
  corpus.reserve(solves.size());
  for (QueueItem& item : solves) {
    corpus.push_back(std::move(item.req.instance));
  }
  std::vector<std::vector<NodeId>> traces(solves.size());
  const auto solver =
      [&](const udg::UdgInstance& inst) -> par::BatchOutcome {
    const std::size_t i = static_cast<std::size_t>(&inst - corpus.data());
    QueueItem& item = solves[i];
    if (item.state->cancel_requested()) {
      // Cooperative cancellation: skip the solve entirely. The marker
      // error is mapped back to kCancelled at completion.
      par::BatchOutcome o;
      o.failed = true;
      o.error = "cancelled";
      return o;
    }
    if (params_.solve_hook) {
      return params_.solve_hook(item.req, served[i], *item.state);
    }
    const bool want = item.req.want_trace && !strip &&
                      served[i] != Tier::kGreedy;
    return solve_tier(inst, served[i], want ? &traces[i] : nullptr);
  };
  const par::BatchResult result = batch_.solve(corpus, solver);

  const TimePoint done = now();
  for (std::size_t i = 0; i < solves.size(); ++i) {
    QueueItem& item = solves[i];
    const par::BatchOutcome& o = result.outcomes[i];
    Response r;
    r.id = item.req.id;
    r.tier = served[i];
    if (done > item.req.deadline) {
      // The solver finished after the deadline (or never will): the
      // result is discarded, never returned as a success.
      r.status = Status::kTimeout;
    } else if (o.failed) {
      if (o.error == "cancelled") {
        r.status = Status::kCancelled;
      } else {
        r.status = Status::kError;
        r.error = o.error;
      }
    } else {
      r.status = Status::kOk;
      r.cds = o.cds;
      r.dominators = o.dominators;
      r.trace = std::move(traces[i]);
      r.trace_stripped =
          item.req.want_trace && strip && served[i] != Tier::kGreedy;
      r.degraded = served[i] != item.req.tier || r.trace_stripped;
    }
    r.latency_seconds = seconds_between(item.submitted, done);
    if (item.state->complete(std::move(r))) {
      if (h_latency_[static_cast<std::uint8_t>(served[i])]) {
        h_latency_[static_cast<std::uint8_t>(served[i])]->record(
            seconds_between(item.submitted, done));
      }
      std::lock_guard<std::mutex> lk(lat_mu_);
      latency_.add(seconds_between(item.submitted, done));
    }
  }
}

void Server::watchdog_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(params_.poll);
    const TimePoint t = now();
    std::lock_guard<std::mutex> lk(reg_mu_);
    for (Tracked& e : registry_) {
      if (e.deadline <= t && !e.state->done()) {
        // Deadline enforcement: cancel cooperatively and complete the
        // slot. If the solver finishes later its result loses the
        // race and is discarded — a hung solve cannot stall the
        // caller or poison the batch.
        e.state->request_cancel();
        finish_now(e.state, e.id, Status::kTimeout, e.tier);
      }
    }
    retire_done_locked();
  }
}

void Server::checkpoint_loop() {
  auto last = std::chrono::steady_clock::now();
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(params_.poll);
    const auto t = std::chrono::steady_clock::now();
    if (t - last < params_.checkpoint_every) continue;
    last = t;
    try {
      write_checkpoint();
    } catch (const std::exception&) {
      // A failed periodic checkpoint must not take the server down;
      // the previous checkpoint file is still intact (atomic rename).
    }
  }
}

CheckpointData Server::snapshot_checkpoint() {
  std::lock_guard<std::mutex> lk(engine_mu_);
  if (!engine_) {
    throw std::logic_error("Server: no churn engine to checkpoint");
  }
  CheckpointData data;
  data.base_points = base_points_;
  data.journal = journal_;
  data.epoch = engine_->epoch();
  data.cds_size = engine_->cds_size();
  data.cds_hash = hash_backbone(engine_->cds());
  return data;
}

void Server::write_checkpoint() {
  {
    std::lock_guard<std::mutex> lk(checkpoint_mu_);
    save_checkpoint(params_.checkpoint_path, snapshot_checkpoint());
  }
  if (c_checkpoints_) c_checkpoints_->add();
  std::lock_guard<std::mutex> lk(reg_mu_);
  ++stats_.checkpoints;
}

void Server::checkpoint_now() {
  if (params_.checkpoint_path.empty()) {
    throw std::logic_error("Server: no checkpoint_path configured");
  }
  write_checkpoint();
}

void Server::account(Status s, bool degraded) const {
  switch (s) {
    case Status::kOk: ++stats_.ok; break;
    case Status::kRejected: ++stats_.rejected; break;
    case Status::kShed: ++stats_.shed; break;
    case Status::kTimeout: ++stats_.timeout; break;
    case Status::kCancelled: ++stats_.cancelled; break;
    case Status::kInvalid: ++stats_.invalid; break;
    case Status::kError: ++stats_.errors; break;
  }
  if (degraded) ++stats_.degraded;
  if (c_status_[static_cast<std::uint8_t>(s)]) {
    c_status_[static_cast<std::uint8_t>(s)]->add();
  }
  if (degraded && c_degraded_) c_degraded_->add();
}

void Server::retire_done_locked() const {
  std::erase_if(registry_, [&](const Tracked& e) {
    if (!e.state->done()) return false;
    account(e.state->status(), e.state->response_degraded());
    return true;
  });
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  retire_done_locked();
  ServerStats s = stats_;
  s.inflight = registry_.size();
  return s;
}

std::size_t Server::overload_level() const {
  std::lock_guard<std::mutex> lk(overload_mu_);
  return overload_.level();
}

std::vector<OverloadTransition> Server::overload_transitions() const {
  std::lock_guard<std::mutex> lk(overload_mu_);
  return overload_.transitions();
}

std::size_t Server::journal_size() const {
  std::lock_guard<std::mutex> lk(engine_mu_);
  return journal_.size();
}

void Server::drain() {
  accepting_.store(false, std::memory_order_relaxed);
  while (true) {
    {
      std::lock_guard<std::mutex> lk(reg_mu_);
      retire_done_locked();
      if (queue_.depth() == 0 && registry_.empty()) break;
    }
    std::this_thread::sleep_for(params_.poll);
  }
  shutdown();
}

void Server::shutdown() {
  accepting_.store(false, std::memory_order_relaxed);
  queue_.close();  // queued-but-unstarted work becomes kCancelled
  running_.store(false, std::memory_order_relaxed);
  wake_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
  // Terminal sweep: anything still pending (nothing should be, after
  // the joins) is cancelled so no caller blocks forever, then every
  // outcome is accounted exactly once.
  std::lock_guard<std::mutex> lk(reg_mu_);
  for (Tracked& e : registry_) {
    if (!e.state->done()) {
      finish_now(e.state, e.id, Status::kCancelled, e.tier);
    }
  }
  retire_done_locked();
}

}  // namespace mcds::serve
