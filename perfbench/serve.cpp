// Workload `serve`: one serve::Server (2 solver workers, batches of 8, a
// queue of 64, a churn engine over a 2·10^4-node field) driven open-loop
// at a fixed 250 req/s by one client thread: 80% solve reads on a pool
// of 64 connected 500-node UDGs, 20% churn writes of 4 events.

#include <sys/prctl.h>

#include <memory>
#include <thread>

#include "common.hpp"
#include "core/kmcds.hpp"
#include "core/validate.hpp"
#include "dyn/dynamic_cds.hpp"
#include "graph/traversal.hpp"
#include "serve/checkpoint.hpp"
#include "serve/server.hpp"
#include "udg/builder.hpp"
#include "udg/deployment.hpp"

namespace mcds::perfbench {

namespace {

constexpr std::size_t kFieldNodes = 20000;
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kPoolNodes = 500;
constexpr double kRate = 250.0;  ///< requests per second, open loop
constexpr double kWriteFrac = 0.2;
constexpr std::size_t kOpsPerWrite = 4;
constexpr double kDeadlineMs = 100.0;

using serve::Tier;

/// A request as drawn from the seed, before it is materialized.
struct Planned {
  bool write = false;
  std::size_t instance = 0;
  Tier tier = Tier::kKm11;
  serve::Priority priority = serve::Priority::kNormal;
  std::vector<serve::ChurnOp> ops;
};

/// kPoolSize connected kPoolNodes-node UDGs at side 0.55·√n; a draw that
/// comes out disconnected is replaced by the next one.
std::vector<udg::UdgInstance> make_pool(std::uint64_t seed) {
  std::vector<udg::UdgInstance> pool;
  sim::Rng rng = sim::Rng::child(seed, 301);
  while (pool.size() < kPoolSize) {
    udg::UdgInstance inst;
    inst.points =
        udg::deploy_uniform_square(kPoolNodes, field_side(kPoolNodes), rng);
    inst.graph = udg::build_udg(inst.points, 1.0);
    if (graph::is_connected(inst.graph)) pool.push_back(std::move(inst));
  }
  return pool;
}

std::vector<Planned> make_plan(std::size_t n, const Field& field,
                               std::uint64_t seed) {
  sim::Rng rng = sim::Rng::child(seed, 302);
  ChurnStream churn(field, seed, 303);
  std::vector<Planned> plan(n);
  for (Planned& p : plan) {
    p.write = rng.uniform01() < kWriteFrac;
    if (p.write) {
      for (std::size_t k = 0; k < kOpsPerWrite; ++k) {
        const ChurnStream::Event e = churn.next();
        serve::ChurnOp op;
        op.kind = e.kind == ChurnStream::Kind::kMove
                      ? serve::ChurnOp::Kind::kMove
                  : e.kind == ChurnStream::Kind::kErase
                      ? serve::ChurnOp::Kind::kErase
                      : serve::ChurnOp::Kind::kRevive;
        op.node = e.node;
        op.pos = e.pos;
        p.ops.push_back(op);
      }
    } else {
      p.instance = rng.uniform_int(kPoolSize);
      const double u = rng.uniform01();
      p.tier = u < 0.10 ? Tier::kKm22 : u < 0.55 ? Tier::kKm11 : Tier::kGreedy;
      p.priority = static_cast<serve::Priority>(rng.uniform_int(3));
    }
  }
  return plan;
}

bool valid_at_tier(const udg::UdgInstance& inst, Tier tier,
                   const std::vector<NodeId>& cds) {
  if (tier == Tier::kGreedy) return core::check_cds(inst.graph, cds).ok;
  core::KmParams kp;
  kp.k = kp.m = tier == Tier::kKm22 ? 2 : 1;
  return core::check_kmcds(inst.graph, cds, kp).ok;
}

/// One submitted request as the client saw it.
struct Sent {
  serve::Ticket ticket;
  Clock::time_point due;
  Clock::time_point sent;
  bool traced = false;
  double depth = 0.0;  ///< queue depth sampled before a traced submit
};

}  // namespace

Report run_serve(const Options& o) {
  Report rep;
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(kRate * o.seconds + 0.5));
  std::vector<udg::UdgInstance> pool;
  Field field;
  std::vector<Planned> plan;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  // Set-up is cheap here (~0.2 s), so more repetitions steady its median.
  for (int k = 0; k < setup_reps(o, 7); ++k) {
    server.reset();
    const auto t0 = Clock::now();
    pool = make_pool(o.seed);
    field = make_field(kFieldNodes, o.seed, 300);
    plan = make_plan(n, field, o.seed);
    serve::ServerParams params;
    params.queue_capacity = 64;
    params.max_batch = 8;
    params.threads = 2;
    params.initial_points = field.points;
    server = std::make_unique<serve::Server>(std::move(params));
    // Warm-up: one read per tier, waited for.
    for (const Tier tier : {Tier::kKm22, Tier::kKm11, Tier::kGreedy}) {
      serve::Request req;
      req.instance = pool[static_cast<std::size_t>(tier)];
      req.tier = tier;
      req.deadline = Clock::now() + std::chrono::seconds(10);
      const serve::Response r = server->submit(std::move(req)).wait();
      if (r.status != serve::Status::kOk ||
          !valid_at_tier(pool[static_cast<std::size_t>(tier)], r.tier,
                         r.cds)) {
        rep.fail("warm-up read failed");
      }
    }
    setup_s.push_back(seconds_since(t0));
  }
  rep.notes.push_back(describe("churn field", field));
  rep.notes.push_back("request pool: " + std::to_string(kPoolSize) + " x " +
                      std::to_string(kPoolNodes) +
                      "-node connected UDGs; server: 2 solver workers, "
                      "max_batch 8, queue 64");
  rep.notes.push_back("open loop: " + std::to_string(n) + " requests at " +
                      std::to_string(kRate) + " req/s");

  // Open loop: request i is due at start + i / rate, whatever happened to
  // the ones before it. Every other request is traced in a traced run.
  Tracer tr;
  std::vector<Sent> sent(n);
  // Wake the client as close to each due time as the kernel allows
  // (the default 50 us timer slack would add to every latency).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    serve::Request req;
    const Planned& p = plan[i];
    if (p.write) {
      req.ops = p.ops;
    } else {
      req.instance = pool[p.instance];
      req.tier = p.tier;
      req.priority = p.priority;
    }
    Sent& s = sent[i];
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / kRate));
    req.deadline = s.due + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   kDeadlineMs));
    std::this_thread::sleep_until(s.due);
    s.traced = o.trace && i % 2 == 0;
    if (s.traced) {
      s.depth = static_cast<double>(server->queue_depth());
      s.sent = Clock::now();
      Tracer::Scope span(tr, "serve.submit", i);
      s.ticket = server->submit(std::move(req));
    } else {
      s.sent = Clock::now();
      s.ticket = server->submit(std::move(req));
    }
  }
  server->drain();

  // Validate every response and take latencies from the due times.
  std::vector<serve::Response> resp(n);
  std::vector<double> lat_ms, late_ms, traced_lat, plain_lat;
  std::vector<double> lat_of(n, -1.0);  ///< per valid request, from due
  std::size_t ok = 0, degraded = 0, at_tier = 0;
  double frac = 0.0;
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    const Sent& s = sent[i];
    resp[i] = sent[i].ticket.wait();
    const serve::Response& r = resp[i];
    late_ms.push_back(ms_between(s.due, s.sent));
    ++rep.attempted;
    if (r.status != serve::Status::kOk) {
      rep.fail("request " + std::to_string(i) + ": " + to_string(r.status));
      continue;
    }
    const Planned& p = plan[i];
    if (!p.write && !valid_at_tier(pool[p.instance], r.tier, r.cds)) {
      rep.fail("request " + std::to_string(i) + ": invalid " +
               to_string(r.tier) + " backbone");
      continue;
    }
    ++ok;
    if (r.degraded) ++degraded;
    if (!p.write && r.tier == p.tier) {
      frac += static_cast<double>(r.cds.size()) /
              static_cast<double>(pool[p.instance].graph.num_nodes());
      ++at_tier;
    }
    const double ms = ms_between(s.due, s.sent) + r.latency_seconds * 1e3;
    lat_of[i] = ms;
    lat_ms.push_back(ms);
    (s.traced ? traced_lat : plain_lat).push_back(ms);
    last_done = std::max(
        last_done, s.sent + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    r.latency_seconds)));
  }
  const serve::ServerStats stats = server->stats();
  if (stats.leaked() != 0) {
    rep.fail(std::to_string(stats.leaked()) + " leaked requests");
  }
  ++rep.attempted;
  const core::CdsCheck engine_check = server->engine()->check();
  if (!engine_check.ok) {
    rep.fail("churn engine backbone after drain: " + engine_check.describe());
  }
  const double late_max = max_of(late_ms);
  if (late_max > kDeadlineMs) {
    rep.fail("open loop invalid: the generator fell " +
             std::to_string(late_max) + " ms behind");
  }
  rep.notes.push_back("generator late: p99 " +
                      std::to_string(quantile(late_ms, 0.99)) + " ms, max " +
                      std::to_string(late_max) + " ms");

  if (!o.trace) {
    const double window_s =
        std::chrono::duration<double>(last_done - start).count();
    rep.add("setup_s", median(setup_s), "s");
    add_latency_metrics(rep, lat_ms);
    rep.add("ops_per_s", static_cast<double>(ok) / window_s, "1/s");
    rep.add("backbone_frac",
            at_tier == 0 ? 0.0 : frac / static_cast<double>(at_tier),
            "ratio");
    rep.add("degraded_frac",
            ok == 0 ? 0.0
                    : static_cast<double>(degraded) / static_cast<double>(ok),
            "ratio");
    return rep;
  }

  // Service time per (instance, tier): serve::solve_tier on the request
  // pool, median of three passes. Its output must match what the server
  // returned for the same instance and tier.
  constexpr Tier kTiers[] = {Tier::kKm22, Tier::kKm11, Tier::kGreedy};
  constexpr const char* kServiceSpan[] = {
      "serve.service_km22", "serve.service_km11", "serve.service_greedy"};
  std::vector<std::vector<NodeId>> solved(kPoolSize * 3);
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (std::size_t t = 0; t < 3; ++t) {
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        std::vector<NodeId> trace;
        Tracer::Scope span(tr, kServiceSpan[t], i);
        solved[i * 3 + t] =
            serve::solve_tier(pool[i], kTiers[t],
                              kTiers[t] == Tier::kGreedy ? nullptr : &trace)
                .cds;
      }
    }
  }
  std::vector<double> service(kPoolSize * 3);
  for (std::size_t t = 0; t < 3; ++t) {
    const std::vector<double> all = tr.self_ms(kServiceSpan[t]);
    std::vector<double> per_tier;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      service[i * 3 + t] =
          median({all[i], all[kPoolSize + i], all[2 * kPoolSize + i]});
      per_tier.push_back(service[i * 3 + t]);
    }
    rep.add(std::string(kServiceSpan[t]) + "_p50_ms", median(per_tier), "ms");
  }
  // Writes: replay every write, in order, on a shadow engine built from
  // the same field; it must end where the server's engine ended.
  dyn::DynamicCds shadow(field.points);
  std::vector<double> write_service(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!plan[i].write) continue;
    const auto t0 = Clock::now();
    for (const serve::ChurnOp& op : plan[i].ops) {
      serve::apply_churn_op(shadow, op);
    }
    write_service[i] = ms_between(t0, Clock::now());
  }
  if (shadow.cds() != server->engine()->cds()) {
    rep.fail("differential: replayed writes end on another backbone");
  }

  std::vector<double> wait, depth;
  std::vector<double> by_class[4];  // km22, km11, greedy, write
  for (std::size_t i = 0; i < n; ++i) {
    if (lat_of[i] < 0.0) continue;
    const serve::Response& r = resp[i];
    const Planned& p = plan[i];
    const double ms = lat_of[i];
    double svc = write_service[i];
    if (!p.write) {
      const std::size_t t = static_cast<std::size_t>(r.tier);
      svc = service[p.instance * 3 + t];
      if (r.cds != solved[p.instance * 3 + t]) {
        rep.fail("differential: solve_tier differs from the server's "
                 "response " + std::to_string(i));
      }
    }
    wait.push_back(ms - svc);
    by_class[p.write ? 3 : static_cast<std::size_t>(r.tier)].push_back(ms);
    if (sent[i].traced) depth.push_back(sent[i].depth);
  }
  std::vector<double> submit_us = tr.self_ms("serve.submit");
  for (double& v : submit_us) v *= 1e3;
  rep.add("serve.submit_p50_us", median(submit_us), "us");
  rep.add("serve.submit_p99_us", quantile(submit_us, 0.99), "us");
  rep.add("serve.wait_p50_ms", median(wait), "ms");
  rep.add("serve.wait_p99_ms", quantile(wait, 0.99), "ms");
  constexpr const char* kClass[] = {"km22", "km11", "greedy", "write"};
  for (std::size_t c = 0; c < 4; ++c) {
    const std::string name = std::string("serve.latency_") + kClass[c];
    rep.add(name + "_p50_ms", median(by_class[c]), "ms");
    rep.add(name + "_p99_ms", quantile(by_class[c], 0.99), "ms");
  }
  rep.add("serve.queue_depth_p50", median(depth), "count");
  rep.add("serve.queue_depth_max", max_of(depth), "count");
  rep.add("serve.rejected", static_cast<double>(stats.rejected), "count");
  rep.add("serve.shed", static_cast<double>(stats.shed), "count");
  rep.add("serve.timeout", static_cast<double>(stats.timeout), "count");
  rep.add("serve.errors", static_cast<double>(stats.errors), "count");
  rep.add("serve.leaked", static_cast<double>(stats.leaked()), "count");
  rep.add("serve.overload_transitions",
          static_cast<double>(server->overload_transitions().size()),
          "count");
  rep.add("bench.gen_late_p99_ms", quantile(late_ms, 0.99), "ms");
  rep.add("bench.gen_late_max_ms", late_max, "ms");
  rep.add("trace_overhead_frac",
          median(traced_lat) / median(plain_lat) - 1.0, "ratio");
  rep.add("op_samples", static_cast<double>(lat_ms.size()), "count");
  if (!o.spans_out.empty() && !tr.write(o.spans_out)) {
    rep.fail("cannot write spans to " + o.spans_out);
  }
  return rep;
}

}  // namespace mcds::perfbench
