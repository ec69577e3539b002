// Experiment E12: runtime scaling of the construction algorithms
// (google-benchmark). Not a paper artifact — an engineering companion
// that documents the asymptotic behavior of this implementation.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>

#include "baselines/guha_khuller.hpp"
#include "baselines/stojmenovic.hpp"
#include "core/connector_engine.hpp"
#include "core/greedy_connect.hpp"
#include "core/kmcds.hpp"
#include "core/waf.hpp"
#include "par/batch_solver.hpp"
#include "par/thread_pool.hpp"
#include "serve/server.hpp"
#include "dist/distributed_cds.hpp"
#include "dist/failure_detector.hpp"
#include "dist/fault.hpp"
#include "dist/survivability.hpp"
#include "dyn/dynamic_cds.hpp"
#include "obs/causal.hpp"
#include "obs/obs.hpp"
#include "exact/exact_cds.hpp"
#include "graph/small_graph.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"

namespace {

using namespace mcds;

udg::UdgInstance make_instance(std::size_t n) {
  udg::InstanceParams params;
  params.nodes = n;
  params.side = std::sqrt(static_cast<double>(n)) * 0.85;
  return udg::generate_largest_component_instance(params, 42 + n);
}

void BM_BuildUdg(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = make_instance(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(udg::build_udg(inst.points));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildUdg)->Range(64, 4096)->Complexity(benchmark::oN);

void BM_WafCds(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::waf_cds(inst.graph, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WafCds)->Range(64, 4096)->Complexity();

void BM_GreedyCds(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_cds(inst.graph, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyCds)->Range(64, 4096)->Complexity();

// Phase 2 head-to-head: the incremental union-find + lazy-gain-queue
// engine vs the per-round full-rescan reference, on identical MIS
// inputs. These two must produce bit-identical traces (differential
// tested); only the wall clock may differ. scripts/bench_snapshot.sh
// records the trajectory into BENCH_phase2.json.
void BM_GreedyConnectorsIncremental(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const auto phase1 = core::bfs_first_fit_mis(inst.graph, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_connectors(inst.graph, phase1.mis));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyConnectorsIncremental)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Complexity(benchmark::oNLogN);

void BM_GreedyConnectorsReference(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const auto phase1 = core::bfs_first_fit_mis(inst.graph, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::greedy_connectors_reference(inst.graph, phase1.mis));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyConnectorsReference)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Complexity(benchmark::oNSquared);

// Observability overhead head-to-head (BENCH_TOPIC=obs): the phase-2
// workload above runs with instrumentation compiled in but disabled
// (null sinks — the BM_GreedyConnectorsIncremental numbers must stay
// within noise of the BENCH_phase2.json baseline), while this variant
// pays for live metric counters plus trace spans. The gap between the
// two is the price of turning observability on.
void BM_GreedyConnectorsObserved(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const auto phase1 = core::bfs_first_fit_mis(inst.graph, 0);
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder(1u << 12);
    const obs::Obs o{&registry, &recorder};
    benchmark::DoNotOptimize(
        core::greedy_connectors(inst.graph, phase1.mis, o));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyConnectorsObserved)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Complexity(benchmark::oNLogN);

// Causal-tracing overhead (BENCH_TOPIC=obs): the full distributed waf
// construction with a CausalTracer stamping a span per transmission,
// against BM_FaultFreeRuntime (same construction, null sinks) as the
// baseline. The delta prices the per-message on_send/on_deliver pair.
void BM_CausalTracedRuntime(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    obs::CausalTracer tracer;
    dist::RunConfig cfg;
    cfg.obs.causal = &tracer;
    benchmark::DoNotOptimize(dist::distributed_waf_cds(inst.graph, cfg));
    benchmark::DoNotOptimize(tracer.num_spans());
  }
}
BENCHMARK(BM_CausalTracedRuntime)->Range(64, 512);

// The connector engine drained directly over a prebuilt phase-1 MIS
// (BENCH_TOPIC=par), without the step lists greedy_connectors records.
void BM_GreedyConnectorsCsr(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const auto phase1 = core::bfs_first_fit_mis(inst.graph, 0);
  for (auto _ : state) {
    core::ConnectorEngine engine(inst.graph, phase1.mis);
    while (!engine.done()) benchmark::DoNotOptimize(engine.select_next());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyConnectorsCsr)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Complexity(benchmark::oNLogN);

// Parallel UDG construction: the grid kernel's count and fill passes
// fanned over the pool (the serial prologue — ordering points by cell —
// is part of the measured cost, as in BM_BuildUdg). Worker count is the
// auto default, so on a multi-core host this shows the build-side
// speedup and on a single-core host it measures the parallel path's
// overhead honestly.
void BM_BuildUdgParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = make_instance(n);
  par::ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(udg::build_udg(inst.points, 1.0, pool));
  }
  state.counters["threads"] = static_cast<double>(pool.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildUdgParallel)->Arg(4096)->Arg(16384)->Complexity();

// Batch throughput vs worker count (BENCH_TOPIC=par, EXPERIMENTS E25):
// a fixed 64-instance corpus solved with the Section IV greedy at 1, 2,
// 4 and 8 workers. items_per_second is the figure of merit; scaling is
// bounded by the host's core count (the "threads" counter records the
// requested workers, not the cores present).
void BM_BatchSolve(benchmark::State& state) {
  static const auto corpus = [] {
    udg::InstanceParams params;
    params.nodes = 256;
    params.side = std::sqrt(256.0) * 0.85;
    return par::make_corpus(params, 64, 42);
  }();
  par::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const par::BatchSolver solver(pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(corpus, par::solve_greedy));
  }
  state.counters["threads"] = static_cast<double>(pool.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_BatchSolve)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GuhaKhuller(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::guha_khuller_cds(inst.graph));
  }
}
BENCHMARK(BM_GuhaKhuller)->Range(64, 1024);

void BM_Stojmenovic(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::stojmenovic_cds(inst.graph));
  }
}
BENCHMARK(BM_Stojmenovic)->Range(64, 1024);

// Fault-layer overhead microbenchmarks. BM_FaultFreeRuntime is the
// unchanged ideal path; BM_FaultInjectedRuntime pays the channel-model
// sampling on every send; BM_ReliableWaf adds the ack/retransmission
// wrapper on a lossy network. scripts/bench_snapshot.sh records these
// into BENCH_fault.json (BENCH_TOPIC=fault).
void BM_FaultFreeRuntime(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::distributed_waf_cds(inst.graph, dist::RunConfig{}));
  }
}
BENCHMARK(BM_FaultFreeRuntime)->Range(64, 512);

void BM_FaultInjectedRuntime(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  dist::RunConfig cfg;
  cfg.plan.link = {0.1, 0.05, 1};
  cfg.plan.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::distributed_waf_cds(inst.graph, cfg));
  }
}
BENCHMARK(BM_FaultInjectedRuntime)->Range(64, 512);

// Partition enforcement happens on every send (a group-label compare
// before the channel model runs), so its cost shows up as the gap to
// BM_FaultFreeRuntime on the same heartbeat workload. The schedule cuts
// the network in half at round 3 and heals it at round 20; the detector
// runs a fixed 48-round horizon, so the workload is size-deterministic.
// scripts/bench_snapshot.sh records this into BENCH_partition.json
// (BENCH_TOPIC=partition).
void BM_PartitionedRuntime(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = inst.graph.num_nodes();
  dist::RunConfig cfg;
  dist::PartitionEvent split;
  split.round = 3;
  split.groups.resize(2);
  for (graph::NodeId v = 0; v < n; ++v) {
    split.groups[v < n / 2 ? 0 : 1].push_back(v);
  }
  cfg.plan.partitions.push_back(split);
  cfg.plan.partitions.push_back({20, {}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::detect_failures(inst.graph, cfg));
  }
}
BENCHMARK(BM_PartitionedRuntime)->Range(64, 512);

void BM_HeartbeatRuntime(benchmark::State& state) {
  // The same detector workload with no partition: the baseline the
  // per-send group check is measured against.
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::detect_failures(inst.graph));
  }
}
BENCHMARK(BM_HeartbeatRuntime)->Range(64, 512);

void BM_ReliableWaf(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  dist::RunConfig cfg;
  cfg.reliable = true;
  cfg.plan.link.drop = 0.2;
  cfg.plan.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::distributed_waf_cds(inst.graph, cfg));
  }
}
BENCHMARK(BM_ReliableWaf)->Range(64, 256);

void BM_ExactGammaC(benchmark::State& state) {
  // Exponential solver: small n only; shows why approximation matters.
  const auto n = static_cast<std::size_t>(state.range(0));
  udg::InstanceParams params;
  params.nodes = n;
  params.side = 2.8;
  const auto inst = udg::generate_largest_component_instance(params, 5);
  const graph::SmallGraph sg(inst.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::connected_domination_number(sg));
  }
}
BENCHMARK(BM_ExactGammaC)->DenseRange(10, 18, 4);

// Experiment E26: streaming churn throughput of the incremental engine
// (events/s at constant density) against per-event solve-from-scratch.
// scripts/bench_snapshot.sh BENCH_TOPIC=dynamic records both into
// BENCH_dynamic.json; the README quotes the crossover.

std::vector<geom::Vec2> uniform_points(std::size_t n, double side,
                                       std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return pts;
}

// One churn event against the engine: mostly small jittered moves with a
// sprinkling of fail-stop crashes and recoveries (the same mix the
// differential suite validates).
void churn_event(dyn::DynamicCds& engine, sim::Rng& rng, double side) {
  const auto v =
      static_cast<graph::NodeId>(rng.uniform_int(engine.num_nodes()));
  if (!engine.alive(v)) {
    engine.revive(v, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    return;
  }
  if (rng.uniform01() < 0.1) {
    engine.erase(v);
    return;
  }
  const geom::Vec2 p = engine.position(v);
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  engine.move(v, {clamp(p.x + rng.uniform(-0.5, 0.5)),
                  clamp(p.y + rng.uniform(-0.5, 0.5))});
}

void BM_DynamicChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n)) * 0.85;
  dyn::DynamicCds engine(uniform_points(n, side, 42 + n));
  sim::Rng rng(7 * n + 1);
  for (auto _ : state) {
    churn_event(engine, rng, side);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
// A fixed event count: otherwise google-benchmark's calibration picks
// the measured run's event count, so each recording timed a
// different-length prefix of the stream.
BENCHMARK(BM_DynamicChurn)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(20000)
    ->Complexity();

void BM_DynamicRebuild(benchmark::State& state) {
  // The baseline the engine replaces: apply the same event stream to a
  // plain position/liveness array and re-solve from scratch every event.
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n)) * 0.85;
  auto pts = uniform_points(n, side, 42 + n);
  std::vector<std::uint8_t> alive(n, 1);
  sim::Rng rng(7 * n + 1);
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  for (auto _ : state) {
    state.PauseTiming();
    const auto v = static_cast<std::size_t>(rng.uniform_int(n));
    if (!alive[v]) {
      alive[v] = 1;
      pts[v] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    } else if (rng.uniform01() < 0.1) {
      alive[v] = 0;
    } else {
      pts[v] = {clamp(pts[v].x + rng.uniform(-0.5, 0.5)),
                clamp(pts[v].y + rng.uniform(-0.5, 0.5))};
    }
    std::vector<geom::Vec2> alive_pts;
    alive_pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i]) alive_pts.push_back(pts[i]);
    }
    state.ResumeTiming();
    dyn::DynamicCds scratch(alive_pts);
    benchmark::DoNotOptimize(scratch.cds_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicRebuild)->Arg(10000)->Arg(100000)->Complexity();

// ---------------------------------------------------------------------
// (k,m)-CDS survivability: construction cost of the fault-tolerant
// variants, and the crash-survival harness over a hostile schedule.
// scripts/bench_snapshot.sh (BENCH_TOPIC=survivability) records these
// into BENCH_survivability.json; the per-variant counters are the raw
// numbers behind the EXPERIMENTS E27 table.

void BM_SurvivabilityBuild(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const core::KmParams params{static_cast<std::uint32_t>(state.range(1)),
                              static_cast<std::uint32_t>(state.range(2))};
  std::size_t backbone = 0;
  for (auto _ : state) {
    const auto r = core::kmcds(inst.graph, params);
    backbone = r.backbone.size();
    benchmark::DoNotOptimize(r.backbone.data());
  }
  state.counters["backbone"] = static_cast<double>(backbone);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SurvivabilityBuild)
    ->Args({256, 1, 1})
    ->Args({256, 1, 2})
    ->Args({256, 2, 1})
    ->Args({256, 2, 2})
    ->Args({1024, 1, 1})
    ->Args({1024, 1, 2})
    ->Args({1024, 2, 1})
    ->Args({1024, 2, 2});

void BM_SurvivabilityMassacre(benchmark::State& state) {
  const auto inst = make_instance(256);
  const core::KmParams params{static_cast<std::uint32_t>(state.range(0)),
                              static_cast<std::uint32_t>(state.range(1))};
  const dist::SurvivabilityVariant variant{"bench", params, 0};
  // The same hostile schedule for every variant — kill the plain CDS's
  // members in order — so events_until_invalid is comparable across
  // rows.
  const auto plain = core::kmcds(inst.graph, {1, 1});
  dist::FaultPlan plan;
  std::size_t round = 1;
  for (const auto v : plain.backbone) {
    plan.schedule.push_back({round++, v, false});
  }
  dist::SurvivabilityReport report;
  for (auto _ : state) {
    report = dist::survive_fault_plan(inst.graph, variant, plan);
    benchmark::DoNotOptimize(report.events);
  }
  state.counters["backbone"] = static_cast<double>(report.backbone_size);
  state.counters["events_until_invalid"] =
      static_cast<double>(report.events_until_invalid());
  state.counters["min_coverage"] = report.min_coverage;
  state.counters["heal_added"] = static_cast<double>(report.heal_added);
}
BENCHMARK(BM_SurvivabilityMassacre)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({2, 1})
    ->Args({2, 2});

// Solve-server benchmarks (BENCH_serve.json). BM_ServeRoundTrip is the
// end-to-end cost of one admitted request through the full stack
// (queue, EDF batcher, pool, watchdog accounting) with a real (1,1)
// solve. BM_ServeOverloadedThroughput drives shaped 1ms solves at a
// multiple of nominal capacity, with admission control on (arg 1:
// bounded queue + overload controller) or off (arg 0: effectively
// unbounded queue), and records goodput and the client-observed p95 —
// the knee: past 1x offered, "on" holds p95 flat by rejecting at the
// door while "off" lets queueing delay grow with the backlog.
void BM_ServeRoundTrip(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  serve::Server server(serve::ServerParams{});
  std::size_t cds = 0;
  for (auto _ : state) {
    serve::Request req;
    req.instance = inst;
    req.tier = serve::Tier::kKm11;
    req.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const serve::Response r = server.submit(std::move(req)).wait();
    if (r.status != serve::Status::kOk) state.SkipWithError("solve failed");
    cds = r.cds.size();
    benchmark::DoNotOptimize(cds);
  }
  state.counters["cds"] = static_cast<double>(cds);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ServeRoundTrip)->Range(64, 512);

void BM_ServeOverloadedThroughput(benchmark::State& state) {
  const double mult = static_cast<double>(state.range(0));
  const bool admission = state.range(1) != 0;
  constexpr std::size_t kThreads = 2;
  constexpr auto kService = std::chrono::milliseconds(1);
  constexpr double kBudgetS = 0.100;
  double goodput = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double ok = 0.0, turned_away = 0.0;
  for (auto _ : state) {
    serve::ServerParams p;
    p.threads = kThreads;
    p.max_batch = kThreads;
    if (admission) {
      p.queue_capacity = 32;
    } else {
      p.queue_capacity = 1 << 20;
      p.overload.enter_depth = 1.0;
      p.overload.enter_p95_s = 1e9;
      p.overload.exit_p95_s = 1e8;
    }
    p.solve_hook = [&](const serve::Request&, serve::Tier,
                       serve::SharedState&) {
      std::this_thread::sleep_for(kService);
      par::BatchOutcome o;
      o.cds = {0};
      o.nodes = 1;
      return o;
    };
    serve::Server server(std::move(p));
    const double capacity =
        static_cast<double>(kThreads) /
        std::chrono::duration<double>(kService).count();
    const double rate = mult * capacity;
    const std::size_t total = static_cast<std::size_t>(rate * 0.4);
    const auto gap =
        std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / rate));
    std::vector<serve::Ticket> tickets;
    tickets.reserve(total);
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < total; ++i) {
      serve::Request req;
      req.instance.points = {{0.0, 0.0}};
      req.instance.graph = graph::Graph(1);
      req.deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<serve::Duration>(
                         std::chrono::duration<double>(kBudgetS));
      tickets.push_back(server.submit(std::move(req)));
      std::this_thread::sleep_for(gap);
    }
    server.drain();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    sim::Accumulator lat;
    for (serve::Ticket& t : tickets) {
      const serve::Response r = t.wait();
      if (r.status == serve::Status::kOk) lat.add(r.latency_seconds * 1e3);
    }
    const serve::ServerStats st = server.stats();
    if (st.leaked() != 0) state.SkipWithError("leaked requests");
    goodput = static_cast<double>(st.ok) / elapsed;
    p50 = lat.p50();
    p95 = lat.p95();
    p99 = lat.p99();
    ok = static_cast<double>(st.ok);
    turned_away = static_cast<double>(st.rejected + st.shed + st.timeout);
  }
  state.counters["goodput_per_s"] = goodput;
  state.counters["p50_ms"] = p50;
  state.counters["p95_ms"] = p95;
  state.counters["p99_ms"] = p99;
  state.counters["ok"] = ok;
  state.counters["turned_away"] = turned_away;
}
BENCHMARK(BM_ServeOverloadedThroughput)
    ->Args({1, 1})
    ->Args({1, 0})
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond);

// Experiment E30: the round loop of the distributed runtime. The two
// heavyweight WAF phases (rank MIS election, connector selection) run
// end-to-end on large connected UDGs, on the recycled inbox arena with
// mail-driven stepping and broadcast records. The `nodes`/`edges`
// counters give the true size of the kept component.
// scripts/bench_snapshot.sh records the trajectory into BENCH_dist.json.

struct DistBenchInputs {
  udg::UdgInstance inst;
  graph::NodeId leader = 0;
  std::vector<graph::NodeId> parent;
  std::vector<graph::NodeId> level;
  std::vector<bool> in_mis;
};

const DistBenchInputs& dist_bench_inputs(std::size_t n) {
  static std::map<std::size_t, DistBenchInputs> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    DistBenchInputs in;
    udg::InstanceParams params;
    params.nodes = n;
    params.side = std::sqrt(static_cast<double>(n)) * 0.55;
    in.inst = udg::generate_largest_component_instance(params, 42 + n);
    const auto tree = dist::build_bfs_tree(in.inst.graph, in.leader);
    in.parent = tree.parent;
    in.level = tree.level;
    in.in_mis = dist::elect_mis(in.inst.graph, in.level).in_mis;
    it = cache.emplace(n, std::move(in)).first;
  }
  return it->second;
}

void BM_DistMisRounds(benchmark::State& state) {
  const auto& in = dist_bench_inputs(static_cast<std::size_t>(state.range(0)));
  const dist::RunConfig cfg;
  double rounds = 0.0;
  double messages = 0.0;
  for (auto _ : state) {
    const auto r = dist::elect_mis(in.inst.graph, in.level, cfg);
    rounds += static_cast<double>(r.stats.rounds);
    messages += static_cast<double>(r.stats.messages);
    benchmark::DoNotOptimize(r.mis.size());
  }
  state.counters["nodes"] = static_cast<double>(in.inst.graph.num_nodes());
  state.counters["edges"] = static_cast<double>(in.inst.graph.num_edges());
  state.counters["rounds_per_s"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsRate);
  state.counters["msgs_per_s"] =
      benchmark::Counter(messages, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DistMisRounds)
    ->ArgName("n")
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_DistConnectorRounds(benchmark::State& state) {
  const auto& in = dist_bench_inputs(static_cast<std::size_t>(state.range(0)));
  const dist::RunConfig cfg;
  double rounds = 0.0;
  double messages = 0.0;
  for (auto _ : state) {
    const auto r = dist::select_connectors(in.inst.graph, in.leader, in.parent,
                                           in.in_mis, cfg);
    rounds += static_cast<double>(r.stats.rounds);
    messages += static_cast<double>(r.stats.messages);
    benchmark::DoNotOptimize(r.cds.size());
  }
  state.counters["nodes"] = static_cast<double>(in.inst.graph.num_nodes());
  state.counters["edges"] = static_cast<double>(in.inst.graph.num_edges());
  state.counters["rounds_per_s"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsRate);
  state.counters["msgs_per_s"] =
      benchmark::Counter(messages, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DistConnectorRounds)
    ->ArgName("n")
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The distro's libbenchmark is compiled without NDEBUG and therefore
  // self-reports library_build_type "debug" no matter how *this* repo
  // is compiled. Record the harness's own build type under a separate
  // context key so scripts/bench_snapshot.sh can gate snapshots on an
  // optimized build.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("mcds_build_type", "release");
#else
  benchmark::AddCustomContext("mcds_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
