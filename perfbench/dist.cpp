// Workload `dist`: the fault-free distributed WAF construction (leader ->
// BFS tree -> MIS election -> connectors) on a 10^5-node field, rounds
// stepped on a pool of nproc workers as `mcds_cli dist` runs it.

#include <memory>

#include "common.hpp"
#include "core/validate.hpp"
#include "dist/distributed_cds.hpp"
#include "par/thread_pool.hpp"
#include "udg/builder.hpp"

namespace mcds::perfbench {

namespace {

constexpr std::size_t kNodes = 100000;

bool same_stats(const dist::RunStats& a, const dist::RunStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.critical_path == b.critical_path && a.by_type == b.by_type &&
         a.per_round == b.per_round;
}

/// distributed_waf_cds through its four phase functions, each in a span,
/// threading one round offset through them as the one-call version does.
dist::DistributedCdsResult traced_op(const graph::Graph& g,
                                     const dist::RunConfig& cfg, Tracer& tr,
                                     std::uint64_t op) {
  Tracer::Scope whole(tr, "dist.op", op);
  dist::DistributedCdsResult out;
  std::size_t offset = 0;
  dist::LeaderResult leader;
  {
    Tracer::Scope span(tr, "dist.leader", op);
    leader = dist::elect_leader(g, cfg, offset);
  }
  out.leader = leader.leader;
  out.leader_stats = leader.stats;
  offset += leader.stats.rounds;
  {
    Tracer::Scope span(tr, "dist.bfs", op);
    out.tree = dist::build_bfs_tree(g, out.leader, cfg, offset);
  }
  offset += out.tree.stats.rounds;
  {
    Tracer::Scope span(tr, "dist.mis", op);
    out.mis = dist::elect_mis(g, out.tree.level, cfg, offset);
  }
  offset += out.mis.stats.rounds;
  {
    Tracer::Scope span(tr, "dist.connectors", op);
    out.connectors = dist::select_connectors(g, out.leader, out.tree.parent,
                                             out.mis.in_mis, cfg, offset);
  }
  out.cds = out.connectors.cds;
  out.complete = leader.complete && out.tree.complete && out.mis.complete &&
                 out.connectors.complete;
  out.total = leader.stats;
  out.total += out.tree.stats;
  out.total += out.mis.stats;
  out.total += out.connectors.stats;
  return out;
}

}  // namespace

Report run_dist(const Options& o) {
  Report rep;
  const std::size_t threads = par::ThreadPool::default_threads();
  std::unique_ptr<par::ThreadPool> pool;
  Field field;
  graph::Graph g;
  dist::RunConfig cfg;
  cfg.plan.seed = 1;  // the `mcds_cli dist` default; the plan is fault-free
  dist::DistributedCdsResult ref;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps(o); ++k) {
    pool.reset();
    g = graph::Graph();
    const auto t0 = Clock::now();
    pool = std::make_unique<par::ThreadPool>(threads);
    field = make_field(kNodes, o.seed, 400);
    g = udg::build_udg(field.points, 1.0, *pool);
    cfg.pool = pool.get();
    ref = dist::distributed_waf_cds(g, cfg);  // warm-up op
    setup_s.push_back(seconds_since(t0));
  }
  rep.notes.push_back(describe("field", field));
  rep.notes.push_back("pool: " + std::to_string(pool->size()) +
                      " workers; rounds " + std::to_string(ref.total.rounds) +
                      ", messages " + std::to_string(ref.total.messages));
  if (!ref.complete || !core::is_cds(g, ref.cds, *pool)) {
    rep.fail("warm-up construction is not a CDS of the full topology");
  }

  const auto validate = [&](const dist::DistributedCdsResult& r,
                            const char* what) {
    ++rep.attempted;
    if (!r.complete || !core::is_cds(g, r.cds, *pool)) {
      rep.fail(std::string(what) + ": not a CDS of the full topology");
    } else if (r.cds != ref.cds || !same_stats(r.total, ref.total)) {
      rep.fail(std::string(what) + ": differs from the warm-up op");
    }
  };

  Tracer tr;
  std::vector<double> plain_ms, traced_ms;
  dist::RunConfig serial_cfg = cfg;
  serial_cfg.pool = nullptr;
  dist::DistributedCdsResult phases;
  const auto start = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < o.seconds; ++i) {
    dist::DistributedCdsResult r;
    const auto run_plain = [&] {
      const auto t0 = Clock::now();
      r = dist::distributed_waf_cds(g, cfg);
      plain_ms.push_back(ms_between(t0, Clock::now()));
    };
    const auto run_traced = [&] {
      const auto t0 = Clock::now();
      phases = traced_op(g, cfg, tr, i);
      traced_ms.push_back(ms_between(t0, Clock::now()));
    };
    // In a traced run the two take turns going first, so neither gains
    // from the other's warm caches on average.
    if (o.trace && i % 2 == 1) run_traced();
    run_plain();
    if (o.trace && i % 2 == 0) run_traced();
    validate(r, "pooled run");
    if (!o.trace) continue;
    if (phases.cds != r.cds || !same_stats(phases.total, r.total)) {
      rep.fail("differential: composed phases differ from "
               "distributed_waf_cds");
    }
    dist::DistributedCdsResult serial;
    {
      Tracer::Scope span(tr, "dist.serial_op", i);
      serial = dist::distributed_waf_cds(g, serial_cfg);
    }
    validate(serial, "serial run");
  }
  const double rounds = static_cast<double>(ref.total.rounds);
  const double messages = static_cast<double>(ref.total.messages);

  if (!o.trace) {
    double busy_s = 0.0;
    for (const double ms : plain_ms) busy_s += ms * 1e-3;
    rep.add("setup_s", median(setup_s), "s");
    add_latency_metrics(rep, plain_ms);
    rep.add("ops_per_s", static_cast<double>(plain_ms.size()) / busy_s,
            "1/s");
    rep.add("backbone_frac",
            static_cast<double>(ref.cds.size()) /
                static_cast<double>(g.num_nodes()),
            "ratio");
    rep.add("dist.rounds", rounds, "count");
    rep.add("dist.messages", messages, "count");
    return rep;
  }

  const double op_ms = median(plain_ms);
  const struct {
    const char* name;
    const dist::RunStats& stats;
  } stages[] = {{"leader", phases.leader_stats},
                {"bfs", phases.tree.stats},
                {"mis", phases.mis.stats},
                {"connectors", phases.connectors.stats}};
  for (const auto& s : stages) {
    const std::string prefix = std::string("dist.") + s.name;
    rep.add(prefix + "_ms", median(tr.self_ms(prefix)), "ms");
    rep.add(prefix + "_rounds", static_cast<double>(s.stats.rounds), "count");
    rep.add(prefix + "_messages", static_cast<double>(s.stats.messages),
            "count");
  }
  rep.add("dist.us_per_round", op_ms * 1e3 / rounds, "us");
  rep.add("dist.msgs_per_s", messages / (op_ms * 1e-3), "1/s");
  rep.add("par.dist_speedup", median(tr.total_ms("dist.serial_op")) / op_ms,
          "ratio");
  rep.add("trace_overhead_frac", median(traced_ms) / op_ms - 1.0, "ratio");
  rep.add("op_samples", static_cast<double>(traced_ms.size()), "count");
  if (!o.spans_out.empty() && !tr.write(o.spans_out)) {
    rep.fail("cannot write spans to " + o.spans_out);
  }
  return rep;
}

}  // namespace mcds::perfbench
