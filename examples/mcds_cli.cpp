// mcds_cli: command-line front end for the library.
//
//   mcds_cli generate --nodes N --side S [--model M] [--seed K] --out F
//       deploys a connected instance and writes it as mcds-points text
//   mcds_cli solve --in F [--algo waf|greedy|gk|stojmenovic|li-thai|
//                          wu-li|alzoubi] [--km k,m] [--prune]
//                  [--svg out.svg]
//       builds the UDG, runs the chosen CDS algorithm, prints the
//       backbone and stats, optionally renders an SVG; --km k,m builds
//       a fault-tolerant (k,m)-CDS (k in {1,2}) instead of --algo
//   mcds_cli stats --in F
//       prints topology metrics of the instance
//   mcds_cli dist --in F [--algo waf|greedy|alzoubi] [--reliable]
//                 [--fault-plan plan.json] [--drop P] [--dup P]
//                 [--delay D] [--seed K] [--threads N]
//       runs the distributed construction, optionally under faults;
//       --fault-plan replays a serialized FaultPlan (e.g. a minimized
//       chaos-fuzzer repro) and the scalar flags refine it; --threads
//       sizes the pool that builds the UDG and validates the backbone
//       (the protocol rounds run on the calling thread)
//   mcds_cli dynamic --in F [--events N] [--crash P] [--speed S]
//                    [--seed K] [--check-every M]
//       streams synthetic churn (jittered moves, fail-stop crashes,
//       recoveries) through the incremental dyn::DynamicCds engine and
//       reports its construction time, then per-event latency
//       percentiles, throughput and the backbone nodes each repair
//       explored (repair scope: sum, p50, p99, max)
//
// solve, dist and dynamic accept observability sinks:
//   --trace F        Chrome trace-event JSON (chrome://tracing, Perfetto)
//   --trace-jsonl F  one JSON record per line (diff-friendly; the
//                    logical clock makes identical runs byte-identical)
//   --metrics F      counter/gauge/histogram registry as one JSON object
//   --prom F         registry in Prometheus text exposition format
//   --profile-folded F
//                    flamegraph-compatible folded stacks aggregated from
//                    the run's trace spans (pipe into flamegraph.pl)
//   --snapshot-jsonl F [--snapshot-every N]
//                    append a timestamped JSONL registry snapshot every
//                    N instrumented events during long runs (default 1)
// dist additionally accepts causal tracing:
//   --critical-path  stamp causal span ids through every message, print
//                    the longest send->deliver->send chain per phase
//   --causal-jsonl F dump the full causal DAG, one span per line
//
// Exit status: 0 on success, 1 on usage error, 2 on runtime failure.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "baselines/alzoubi.hpp"
#include "baselines/bharghavan_das.hpp"
#include "baselines/guha_khuller.hpp"
#include "baselines/li_thai.hpp"
#include "baselines/prune.hpp"
#include "baselines/stojmenovic.hpp"
#include "baselines/wu_li.hpp"
#include "core/bounds.hpp"
#include "core/greedy_connect.hpp"
#include "core/kmcds.hpp"
#include "core/validate.hpp"
#include "core/waf.hpp"
#include "dist/alzoubi_protocol.hpp"
#include "dist/distributed_cds.hpp"
#include "dist/fault_json.hpp"
#include "dist/greedy_protocol.hpp"
#include "dyn/dynamic_cds.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "graph/metrics.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "par/thread_pool.hpp"
#include "serve/server.hpp"
#include "udg/builder.hpp"
#include "udg/instance.hpp"
#include "udg/io.hpp"
#include "viz/render.hpp"

namespace {

using namespace mcds;

struct Args {
  std::map<std::string, std::string> options;
  bool has_flag(const std::string& name) const {
    return options.count(name) > 0;
  }
  std::optional<std::string> get(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
};

Args parse(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --option, got " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  return args;
}

int usage() {
  std::cerr << "usage:\n"
            << "  mcds_cli generate --nodes N --side S [--model "
               "uniform|disk|grid|cluster|corridor] [--seed K] --out F\n"
            << "  mcds_cli solve --in F [--algo waf|greedy|gk|stojmenovic|"
               "li-thai|wu-li|alzoubi] [--km k,m] [--prune] [--svg F.svg] "
               "[--quiet]\n"
            << "  mcds_cli stats --in F\n"
            << "  mcds_cli dist --in F [--algo waf|greedy|alzoubi] "
               "[--reliable] [--fault-plan plan.json] [--drop P] [--dup P] "
               "[--delay D] [--seed K] [--threads N]\n"
            << "  mcds_cli dynamic --in F [--events N] [--crash P] "
               "[--speed S] [--seed K] [--check-every M]\n"
            << "  mcds_cli serve --in F [--requests N] [--budget-ms B] "
               "[--churn P] [--queue C] [--seed K]\n"
            << "solve/dist/dynamic observability: [--trace F.json] "
               "[--trace-jsonl F.jsonl] [--metrics F.json] [--prom F.prom] "
               "[--profile-folded F.folded] [--snapshot-jsonl F.jsonl "
               "[--snapshot-every N]]\n"
            << "dist causal tracing: [--critical-path] "
               "[--causal-jsonl F.jsonl]\n"
            << "solve/dist parallelism: [--threads N] workers build the "
               "UDG and validate the backbone (default: MCDS_THREADS env, "
               "else hardware concurrency; dist rounds stay serial)\n";
  return 1;
}

/// Observability sinks requested on the command line. The sinks live for
/// the whole command and are flushed to disk by write().
struct ObsSinks {
  std::optional<std::string> chrome_path;
  std::optional<std::string> jsonl_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> prom_path;
  std::optional<std::string> folded_path;
  std::optional<std::string> causal_path;
  std::optional<std::string> snapshot_path;
  bool want_causal = false;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  obs::CausalTracer causal;
  std::ofstream snapshot_os;
  std::optional<obs::SnapshotSink> snapshots;

  explicit ObsSinks(const Args& args)
      : chrome_path(args.get("trace")),
        jsonl_path(args.get("trace-jsonl")),
        metrics_path(args.get("metrics")),
        prom_path(args.get("prom")),
        folded_path(args.get("profile-folded")),
        causal_path(args.get("causal-jsonl")),
        snapshot_path(args.get("snapshot-jsonl")),
        want_causal(args.has_flag("critical-path") ||
                    args.get("causal-jsonl").has_value()) {
    if (snapshot_path) {
      snapshot_os.open(*snapshot_path);
      if (!snapshot_os) {
        throw std::runtime_error("cannot write " + *snapshot_path);
      }
      const auto every =
          std::stoul(args.get("snapshot-every").value_or("1"));
      snapshots.emplace(snapshot_os, every == 0 ? 1 : every);
    }
  }

  [[nodiscard]] obs::Obs handle() {
    obs::Obs o;
    if (metrics_path || prom_path || snapshots) o.metrics = &metrics;
    if (chrome_path || jsonl_path || folded_path) o.trace = &trace;
    if (want_causal) o.causal = &causal;
    if (snapshots) o.snapshots = &*snapshots;
    return o;
  }

  /// Writes every requested sink; returns 2 on an unwritable path.
  int write() {
    const auto dump = [](const std::string& path, const auto& emit) {
      std::ofstream os(path);
      if (!os) {
        std::cerr << "mcds_cli: cannot write " << path << "\n";
        return 2;
      }
      emit(os);
      std::cout << "wrote " << path << "\n";
      return 0;
    };
    if (chrome_path) {
      if (const int rc = dump(
              *chrome_path,
              [&](std::ostream& os) { obs::write_chrome_trace(trace, os); });
          rc != 0) {
        return rc;
      }
    }
    if (jsonl_path) {
      if (const int rc =
              dump(*jsonl_path,
                   [&](std::ostream& os) { obs::write_jsonl(trace, os); });
          rc != 0) {
        return rc;
      }
    }
    if (metrics_path) {
      if (const int rc =
              dump(*metrics_path,
                   [&](std::ostream& os) { metrics.write_json(os); });
          rc != 0) {
        return rc;
      }
    }
    if (prom_path) {
      if (const int rc = dump(*prom_path,
                              [&](std::ostream& os) {
                                obs::export_prometheus(metrics, os);
                              });
          rc != 0) {
        return rc;
      }
    }
    if (folded_path) {
      const auto profile = obs::ProfileTree::build(trace);
      if (const int rc =
              dump(*folded_path,
                   [&](std::ostream& os) { profile.write_folded(os); });
          rc != 0) {
        return rc;
      }
    }
    if (causal_path) {
      if (const int rc = dump(*causal_path,
                              [&](std::ostream& os) {
                                obs::write_causal_jsonl(causal, os);
                              });
          rc != 0) {
        return rc;
      }
    }
    if (snapshots) {
      // Final snapshot so the file always ends with the run's end state.
      snapshots->snapshot(metrics);
      snapshot_os.flush();
      std::cout << "wrote " << *snapshot_path << " ("
                << snapshots->snapshots() << " snapshot(s))\n";
    }
    return 0;
  }
};


/// Worker count for --threads: the flag wins, then the MCDS_THREADS
/// environment variable, then hardware concurrency (ThreadPool's own
/// default chain).
std::size_t parse_threads(const Args& args) {
  if (const auto v = args.get("threads")) {
    const unsigned long t = std::stoul(*v);
    if (t == 0) throw std::invalid_argument("--threads must be >= 1");
    return t;
  }
  return par::ThreadPool::default_threads();
}

udg::DeploymentModel parse_model(const std::string& name) {
  if (name == "uniform") return udg::DeploymentModel::kUniformSquare;
  if (name == "disk") return udg::DeploymentModel::kUniformDisk;
  if (name == "grid") return udg::DeploymentModel::kPerturbedGrid;
  if (name == "cluster") return udg::DeploymentModel::kGaussianCluster;
  if (name == "corridor") return udg::DeploymentModel::kCorridor;
  throw std::invalid_argument("unknown model: " + name);
}

int cmd_generate(const Args& args) {
  udg::InstanceParams params;
  params.nodes = std::stoul(args.get("nodes").value_or("200"));
  params.side = std::stod(args.get("side").value_or("10"));
  params.model = parse_model(args.get("model").value_or("uniform"));
  const auto seed = std::stoull(args.get("seed").value_or("1"));
  const auto out = args.get("out");
  if (!out) {
    std::cerr << "generate: --out is required\n";
    return 1;
  }
  const auto inst = udg::generate_largest_component_instance(params, seed);
  udg::save_points_file(*out, inst.points);
  std::cout << "wrote " << *out << ": " << inst.points.size()
            << " nodes (connected component), " << inst.graph.num_edges()
            << " links, seed " << seed << "\n";
  return 0;
}

int cmd_solve(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::cerr << "solve: --in is required\n";
    return 1;
  }
  const auto points = udg::load_points_file(*in);
  par::ThreadPool pool(parse_threads(args));
  const graph::Graph g = udg::build_udg(points, 1.0, pool);
  if (!graph::is_connected(g)) {
    std::cerr << "solve: instance topology is disconnected\n";
    return 2;
  }

  ObsSinks sinks(args);

  // --km k,m: the fault-tolerant (k,m)-CDS family instead of a plain
  // CDS algorithm; validated with the witness-producing check_kmcds.
  if (const auto km = args.get("km")) {
    core::KmParams params;
    try {
      const auto comma = km->find(',');
      if (comma == std::string::npos) throw std::invalid_argument("km");
      params.k =
          static_cast<std::uint32_t>(std::stoul(km->substr(0, comma)));
      params.m =
          static_cast<std::uint32_t>(std::stoul(km->substr(comma + 1)));
      params.validate();
    } catch (const std::exception&) {
      std::cerr << "solve: --km expects k,m with k in {1,2}, m >= 1 "
                   "(e.g. --km 2,2)\n";
      return 1;
    }
    const auto r = core::kmcds(g, params, 0, sinks.handle());
    const auto check = core::check_kmcds(g, r.backbone, params);
    if (!check.ok) {
      std::cerr << "solve: INTERNAL ERROR - produced set is not a ("
                << params.k << "," << params.m
                << ")-CDS: " << check.describe() << "\n";
      return 2;
    }
    std::cout << "algorithm: kmcds (" << params.k << "," << params.m << ")\n"
              << "nodes: " << g.num_nodes() << ", links: " << g.num_edges()
              << "\n"
              << "backbone size: " << r.backbone.size() << " ("
              << 100.0 * static_cast<double>(r.backbone.size()) /
                     static_cast<double>(g.num_nodes())
              << "% of nodes)\n"
              << "dominators: " << r.dominators.size()
              << ", connectors: " << r.connectors.size()
              << ", augmenters: " << r.augmenters.size() << "\n";
    if (!args.has_flag("quiet")) {
      std::cout << "backbone nodes:";
      for (const auto v : r.backbone) std::cout << ' ' << v;
      std::cout << "\n";
    }
    if (const auto svg = args.get("svg")) {
      viz::render_network(points, g, r.backbone, r.dominators).save(*svg);
      std::cout << "wrote " << *svg << "\n";
    }
    return sinks.write();
  }

  const std::string algo = args.get("algo").value_or("greedy");
  std::vector<graph::NodeId> cds, dominators;
  if (algo == "waf") {
    auto r = core::waf_cds(g, 0, sinks.handle());
    cds = r.cds;
    dominators = r.phase1.mis;
  } else if (algo == "greedy") {
    auto r = core::greedy_cds(g, 0, sinks.handle());
    cds = r.cds;
    dominators = r.phase1.mis;
  } else if (algo == "gk") {
    cds = baselines::guha_khuller_cds(g);
  } else if (algo == "stojmenovic") {
    cds = baselines::stojmenovic_cds(g);
  } else if (algo == "li-thai") {
    cds = baselines::li_thai_cds(g);
  } else if (algo == "wu-li") {
    cds = baselines::wu_li_cds(g);
  } else if (algo == "alzoubi") {
    cds = baselines::alzoubi_cds(g);
  } else {
    std::cerr << "solve: unknown --algo " << algo << "\n";
    return 1;
  }
  if (args.has_flag("prune")) cds = baselines::prune_cds(g, cds);

  if (!core::is_cds(g, cds, pool)) {
    std::cerr << "solve: INTERNAL ERROR - produced set is not a CDS\n";
    return 2;
  }
  std::cout << "algorithm: " << algo
            << (args.has_flag("prune") ? " + prune" : "") << "\n"
            << "nodes: " << g.num_nodes() << ", links: " << g.num_edges()
            << "\n"
            << "backbone size: " << cds.size() << " ("
            << 100.0 * static_cast<double>(cds.size()) /
                   static_cast<double>(g.num_nodes())
            << "% of nodes)\n";
  if (!dominators.empty()) {
    std::cout << "dominators: " << dominators.size()
              << ", certified gamma_c lower bound: "
              << core::bounds::gamma_c_lower_bound_from_independent(
                     dominators.size())
              << "\n";
  }
  if (!args.has_flag("quiet")) {
    std::cout << "backbone nodes:";
    for (const auto v : cds) std::cout << ' ' << v;
    std::cout << "\n";
  }
  if (const auto svg = args.get("svg")) {
    viz::render_network(points, g, cds, dominators).save(*svg);
    std::cout << "wrote " << *svg << "\n";
  }
  return sinks.write();
}

int cmd_dist(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::cerr << "dist: --in is required\n";
    return 1;
  }
  const auto points = udg::load_points_file(*in);
  par::ThreadPool pool(parse_threads(args));
  const graph::Graph g = udg::build_udg(points, 1.0, pool);
  if (!graph::is_connected(g)) {
    std::cerr << "dist: instance topology is disconnected\n";
    return 2;
  }

  ObsSinks sinks(args);
  dist::RunConfig cfg;
  if (const auto plan_path = args.get("fault-plan")) {
    // A full serialized plan (typically a fuzzer-minimized repro);
    // the scalar fault flags then refine it.
    try {
      cfg.plan = dist::load_fault_plan(*plan_path);
    } catch (const std::exception& e) {
      std::cerr << "dist: --fault-plan: " << e.what() << "\n";
      return 1;
    }
  }
  if (const auto v = args.get("drop")) cfg.plan.link.drop = std::stod(*v);
  if (const auto v = args.get("dup")) cfg.plan.link.duplicate = std::stod(*v);
  if (const auto v = args.get("delay")) {
    cfg.plan.link.max_delay = std::stoul(*v);
  }
  if (const auto v = args.get("seed")) {
    cfg.plan.seed = std::stoull(*v);
  } else if (!args.get("fault-plan")) {
    cfg.plan.seed = 1;
  }
  cfg.reliable = args.has_flag("reliable");
  cfg.obs = sinks.handle();
  try {
    cfg.plan.validate();
  } catch (const std::exception& e) {
    std::cerr << "dist: " << e.what() << "\n";
    return 1;
  }

  const std::string algo = args.get("algo").value_or("waf");
  std::vector<graph::NodeId> cds;
  dist::RunStats total;
  bool complete = true;
  if (algo == "waf") {
    const auto r = dist::distributed_waf_cds(g, cfg);
    cds = r.cds;
    total = r.total;
    complete = r.complete;
  } else if (algo == "greedy") {
    const auto r = dist::distributed_greedy_cds(g, cfg);
    cds = r.cds;
    total = r.total;
    complete = r.complete;
  } else if (algo == "alzoubi") {
    const auto r = dist::distributed_alzoubi_cds(g, cfg);
    cds = r.cds;
    total = r.total;
    complete = r.complete;
  } else {
    std::cerr << "dist: unknown --algo " << algo << "\n";
    return 1;
  }

  std::cout << "algorithm: distributed " << algo
            << (cfg.reliable ? " (reliable links)" : "") << "\n"
            << "nodes: " << g.num_nodes() << ", links: " << g.num_edges()
            << "\n"
            << "backbone size: " << cds.size() << "\n"
            << "rounds: " << total.rounds << ", messages: " << total.messages
            << "\n";
  if (!total.by_type.empty()) {
    std::cout << "messages by type:";
    for (const auto& [t, c] : total.by_type) {
      std::cout << " type" << t << "=" << c;
    }
    std::cout << "\n";
  }
  if (args.has_flag("critical-path")) {
    std::cout << "critical path (messages, summed over phases): "
              << total.critical_path << "\n";
    obs::critical_path(sinks.causal).write(std::cout);
  }
  if (!complete) {
    std::cout << "note: construction incomplete under faults (validate "
                 "against the survivor graph)\n";
  }
  const bool valid = core::is_cds(g, cds, pool);
  std::cout << "valid CDS on full topology: " << (valid ? "yes" : "no")
            << "\n";
  return sinks.write();
}

int cmd_dynamic(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::cerr << "dynamic: --in is required\n";
    return 1;
  }
  const auto points = udg::load_points_file(*in);
  const auto events = std::stoul(args.get("events").value_or("10000"));
  const double crash = std::stod(args.get("crash").value_or("0.1"));
  const double speed = std::stod(args.get("speed").value_or("0.5"));
  const auto seed = std::stoull(args.get("seed").value_or("1"));
  const auto check_every =
      std::stoul(args.get("check-every").value_or("0"));
  if (crash < 0.0 || crash >= 1.0) {
    std::cerr << "dynamic: --crash must be in [0, 1)\n";
    return 1;
  }

  // The churn field is the input's bounding box: revivals respawn
  // uniformly inside it, moves jitter by at most --speed and clamp.
  double side = 1.0;
  for (const auto& p : points) side = std::max({side, p.x, p.y});

  ObsSinks sinks(args);
  const auto b0 = std::chrono::steady_clock::now();
  dyn::DynamicCds engine(points, {}, sinks.handle());
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - b0)
                              .count();
  std::cout << "build: " << build_ms << " ms\n";
  if (auto* g_build = sinks.handle().gauge("cli.dyn.build_ms")) {
    g_build->set(build_ms);
  }
  sim::Rng rng(seed);
  sim::Accumulator latency_us;
  std::vector<double> scope;  // backbone nodes each event's repair explored
  std::size_t scope_sum = 0;
  const auto clamp = [side](double x) {
    return x < 0.0 ? 0.0 : (x > side ? side : x);
  };
  auto* h_latency = sinks.handle().histogram("cli.dyn.event_us");
  for (std::size_t e = 0; e < events; ++e) {
    const auto v =
        static_cast<graph::NodeId>(rng.uniform_int(engine.num_nodes()));
    const bool was_alive = engine.alive(v);
    const bool crashes = was_alive && rng.uniform01() < crash;
    const geom::Vec2 target =
        was_alive ? geom::Vec2{clamp(engine.position(v).x +
                                     rng.uniform(-speed, speed)),
                               clamp(engine.position(v).y +
                                     rng.uniform(-speed, speed))}
                  : geom::Vec2{rng.uniform(0.0, side),
                               rng.uniform(0.0, side)};
    const auto t0 = std::chrono::steady_clock::now();
    const dyn::EventReport report = !was_alive ? engine.revive(v, target)
                                    : crashes  ? engine.erase(v)
                                               : engine.move(v, target);
    const auto t1 = std::chrono::steady_clock::now();
    scope.push_back(static_cast<double>(report.repair.scope));
    scope_sum += report.repair.scope;
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    latency_us.add(us);
    if (h_latency) h_latency->record(us);
    if (check_every != 0 && (e + 1) % check_every == 0) {
      const auto check = engine.check();
      if (!check.ok) {
        std::cerr << "dynamic: INTERNAL ERROR after event " << (e + 1)
                  << ": " << check.describe() << "\n";
        return 2;
      }
    }
  }
  const auto final_check = engine.check();
  if (!final_check.ok) {
    std::cerr << "dynamic: INTERNAL ERROR - final backbone invalid: "
              << final_check.describe() << "\n";
    return 2;
  }

  const sim::Summary scope_stats = sim::summarize(scope);
  const double total_s = latency_us.count()
                             ? latency_us.mean() * 1e-6 *
                                   static_cast<double>(latency_us.count())
                             : 0.0;
  std::cout << "nodes: " << engine.num_nodes()
            << " (alive: " << engine.alive_count() << ")\n"
            << "events: " << latency_us.count() << ", throughput: "
            << (total_s > 0.0
                    ? static_cast<double>(latency_us.count()) / total_s
                    : 0.0)
            << " events/s\n"
            << "latency (us): p50 " << latency_us.p50() << ", p95 "
            << latency_us.p95() << ", p99 " << latency_us.p99() << ", max "
            << latency_us.max() << "\n"
            << "repair scope: sum " << scope_sum << ", p50 "
            << scope_stats.p50 << ", p99 " << scope_stats.p99 << ", max "
            << scope_stats.max << "\n"
            << "backbone: " << engine.cds_size() << " (MIS "
            << engine.mis_size() << ", envelope "
            << 4 * engine.mis_size() + 12 << ")\n"
            << "rebuilds: " << engine.rebuilds()
            << ", compactions: " << engine.compactions()
            << ", epoch: " << engine.epoch() << "\n"
            << "final backbone valid: yes\n";
  return sinks.write();
}

/// Smoke-mode for the solve server: drive a bounded request mix through
/// serve::Server against the loaded deployment, drain, and report the
/// accounting ledger. A leak is an error (exit 2), which makes this a
/// usable health check in CI.
int cmd_serve(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::cerr << "serve: --in is required\n";
    return 1;
  }
  const auto points = udg::load_points_file(*in);
  const graph::Graph g = udg::build_udg(points);
  if (graph::compute_metrics(g).components != 1) {
    std::cerr << "serve: input must be connected\n";
    return 2;
  }
  const std::size_t requests =
      std::stoul(args.get("requests").value_or("50"));
  const std::size_t budget_ms =
      std::stoul(args.get("budget-ms").value_or("500"));
  const double churn = std::stod(args.get("churn").value_or("0.25"));
  const auto seed = std::stoull(args.get("seed").value_or("1"));

  ObsSinks sinks(args);
  serve::ServerParams params;
  params.queue_capacity = std::stoul(args.get("queue").value_or("64"));
  params.initial_points = points;
  serve::Server server(std::move(params), sinks.handle());

  udg::UdgInstance inst;
  inst.points = points;
  inst.graph = g;
  inst.seed = seed;

  sim::Rng rng(seed);
  std::vector<serve::Ticket> tickets;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::Request req;
    req.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(budget_ms);
    if (rng.uniform01() < churn) {
      req.ops.push_back(
          {serve::ChurnOp::Kind::kMove,
           static_cast<serve::NodeId>(rng.uniform_int(points.size())),
           {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
    } else {
      req.instance = inst;
      req.tier = static_cast<serve::Tier>(rng.uniform_int(3));
      req.priority = static_cast<serve::Priority>(rng.uniform_int(3));
    }
    tickets.push_back(server.submit(std::move(req)));
  }
  server.drain();

  std::size_t ok_with_valid_cds = 0;
  for (serve::Ticket& t : tickets) {
    const serve::Response r = t.wait();
    if (r.status != serve::Status::kOk || r.cds.empty()) continue;
    if (r.epoch == 0 && core::check_cds(g, r.cds).ok) ++ok_with_valid_cds;
  }
  const serve::ServerStats st = server.stats();
  std::cout << "submitted " << st.submitted << ": ok " << st.ok << " ("
            << st.degraded << " degraded, " << ok_with_valid_cds
            << " solve responses validated), rejected " << st.rejected
            << ", shed " << st.shed << ", timeout " << st.timeout
            << ", errors " << st.errors << "\n"
            << "overload transitions: "
            << server.overload_transitions().size() << "\n"
            << "leaked requests: " << st.leaked() << "\n";
  if (const int rc = sinks.write(); rc != 0) return rc;
  return st.leaked() == 0 ? 0 : 2;
}

int cmd_stats(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::cerr << "stats: --in is required\n";
    return 1;
  }
  const auto points = udg::load_points_file(*in);
  const graph::Graph g = udg::build_udg(points);
  const auto m = graph::compute_metrics(g);
  std::cout << "nodes: " << m.nodes << "\nlinks: " << m.edges
            << "\ndegree: min " << m.min_degree << ", avg " << m.avg_degree
            << ", max " << m.max_degree
            << "\ncomponents: " << m.components << "\n";
  if (m.components == 1 && m.nodes > 1) {
    std::cout << "diameter (hops): " << graph::diameter_hops(g) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args = parse(argc, argv, 2);
    if (command == "generate") return cmd_generate(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "dist") return cmd_dist(args);
    if (command == "dynamic") return cmd_dynamic(args);
    if (command == "serve") return cmd_serve(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "mcds_cli: " << e.what() << "\n";
    return 2;
  }
}
