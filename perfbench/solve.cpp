// Workload `solve`: the `mcds_cli solve` path on four seeded 10^5-node
// fields in rotation — pooled UDG build, connectivity check, the paper's
// two-phased greedy CDS, pooled validation.

#include <memory>

#include "common.hpp"
#include "core/greedy_connect.hpp"
#include "core/validate.hpp"
#include "graph/traversal.hpp"
#include "par/thread_pool.hpp"
#include "udg/builder.hpp"

namespace mcds::perfbench {

namespace {

constexpr std::size_t kFields = 4;
constexpr std::size_t kNodes = 100000;

struct Solved {
  std::vector<NodeId> cds;
  std::size_t mis = 0;
  std::size_t connectors = 0;
  bool connected = false;
  core::CdsCheck check;
};

/// One op with one call per stage, as `mcds_cli solve` runs it.
Solved solve_op(const Field& f, par::ThreadPool& pool) {
  Solved s;
  const graph::Graph g = udg::build_udg(f.points, 1.0, pool);
  s.connected = graph::is_connected(g);
  if (!s.connected) return s;
  core::GreedyConnectResult r = core::greedy_cds(g, 0);
  s.check = core::check_cds(g, r.cds, pool);
  s.mis = r.phase1.mis.size();
  s.connectors = r.connectors.size();
  s.cds = std::move(r.cds);
  return s;
}

/// The same op through greedy_cds's public parts, each in a span.
Solved traced_op(const Field& f, par::ThreadPool& pool, Tracer& tr,
                 std::uint64_t op, std::vector<double>& build_faults) {
  Tracer::Scope whole(tr, "solve.op", op);
  Solved s;
  graph::Graph g;
  const std::uint64_t faults0 = minor_faults();
  {
    Tracer::Scope span(tr, "udg.build_udg", op);
    g = udg::build_udg(f.points, 1.0, pool);
  }
  build_faults.push_back(static_cast<double>(minor_faults() - faults0));
  {
    Tracer::Scope span(tr, "graph.is_connected", op);
    s.connected = graph::is_connected(g);
  }
  if (!s.connected) return s;
  core::MisResult mis;
  {
    Tracer::Scope span(tr, "core.phase1", op);
    mis = core::bfs_first_fit_mis(g, 0);
  }
  std::vector<NodeId> connectors;
  {
    Tracer::Scope span(tr, "core.phase2", op);
    connectors = core::greedy_connectors(g, mis.mis).first;
  }
  // I ∪ C in ascending id order, as greedy_cds assembles it.
  std::vector<bool> in_cds = mis.in_mis;
  for (const NodeId c : connectors) in_cds[c] = true;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_cds[v]) s.cds.push_back(v);
  }
  {
    Tracer::Scope span(tr, "core.check_cds", op);
    s.check = core::check_cds(g, s.cds, pool);
  }
  s.mis = mis.mis.size();
  s.connectors = connectors.size();
  return s;
}

}  // namespace

Report run_solve(const Options& o) {
  Report rep;
  const std::size_t threads = par::ThreadPool::default_threads();
  std::unique_ptr<par::ThreadPool> pool;
  std::vector<Field> fields;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps(o); ++k) {
    pool.reset();
    fields.clear();
    const auto t0 = Clock::now();
    pool = std::make_unique<par::ThreadPool>(threads);
    for (std::size_t i = 0; i < kFields; ++i) {
      fields.push_back(make_field(kNodes, o.seed, 100 + i));
    }
    const Solved warm = solve_op(fields[0], *pool);
    setup_s.push_back(seconds_since(t0));
    if (!warm.connected || !warm.check.ok) rep.fail("warm-up op invalid");
  }
  for (std::size_t i = 0; i < kFields; ++i) {
    rep.notes.push_back(describe("field " + std::to_string(i), fields[i]));
  }
  rep.notes.push_back("pool: " + std::to_string(pool->size()) + " workers");

  // Each field's first backbone is its reference: later ops on the same
  // field must reproduce it exactly.
  std::vector<Solved> first(kFields);
  const auto validate = [&](const Solved& s, std::size_t fi) {
    ++rep.attempted;
    const std::string where = "field " + std::to_string(fi) + ": ";
    if (!s.connected) return rep.fail(where + "topology disconnected");
    if (!s.check.ok) return rep.fail(where + s.check.describe());
    if (first[fi].cds.empty()) {
      first[fi] = s;
    } else if (s.cds != first[fi].cds) {
      rep.fail(where + "backbone differs between ops on one input");
    }
  };

  // Every field is solved at least once, whatever --seconds says.
  const auto keep_going = [&](std::size_t i, Clock::time_point start) {
    return i < kFields || seconds_since(start) < o.seconds;
  };

  if (!o.trace) {
    std::vector<double> ms;
    const auto start = Clock::now();
    for (std::size_t i = 0; keep_going(i, start); ++i) {
      const auto t0 = Clock::now();
      const Solved s = solve_op(fields[i % kFields], *pool);
      ms.push_back(ms_between(t0, Clock::now()));
      validate(s, i % kFields);
    }
    const double window = seconds_since(start);
    double frac = 0.0;
    for (std::size_t i = 0; i < kFields; ++i) {
      frac += static_cast<double>(first[i].cds.size()) /
              static_cast<double>(fields[i].points.size());
    }
    rep.add("setup_s", median(setup_s), "s");
    add_latency_metrics(rep, ms);
    rep.add("ops_per_s", static_cast<double>(ms.size()) / window, "1/s");
    rep.add("backbone_frac", frac / kFields, "ratio");
    return rep;
  }

  // Traced: each step runs the one-call op, the same op through its parts
  // inside spans, and a serial build of the same field.
  Tracer tr;
  std::vector<double> plain_ms, traced_ms, faults;
  const auto start = Clock::now();
  for (std::size_t i = 0; keep_going(i, start); ++i) {
    const std::size_t fi = i % kFields;
    Solved plain, traced;
    const auto run_plain = [&] {
      const auto t0 = Clock::now();
      plain = solve_op(fields[fi], *pool);
      plain_ms.push_back(ms_between(t0, Clock::now()));
    };
    const auto run_traced = [&] {
      const auto t0 = Clock::now();
      traced = traced_op(fields[fi], *pool, tr, i, faults);
      traced_ms.push_back(ms_between(t0, Clock::now()));
    };
    // Alternate which goes first, so neither gains from the other's
    // warm caches on average.
    if (i % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    validate(plain, fi);
    if (traced.cds != plain.cds || traced.mis != plain.mis ||
        traced.connectors != plain.connectors) {
      rep.fail("differential: composed greedy_cds differs on field " +
               std::to_string(fi));
    }
    graph::Graph serial;  // outlives the span: freeing it is not timed
    Tracer::Scope span(tr, "udg.build_udg_serial", i);
    serial = udg::build_udg(fields[fi].points, 1.0);
  }
  double mis = 0.0, connectors = 0.0;
  for (const Solved& s : first) {
    mis += static_cast<double>(s.mis);
    connectors += static_cast<double>(s.connectors);
  }
  const double build = median(tr.self_ms("udg.build_udg"));
  rep.add("udg.build_udg_p50_ms", build, "ms");
  rep.add("udg.build_minflt", mean(faults), "count");
  rep.add("graph.is_connected_p50_ms",
          median(tr.self_ms("graph.is_connected")), "ms");
  rep.add("core.phase1_p50_ms", median(tr.self_ms("core.phase1")), "ms");
  rep.add("core.phase2_p50_ms", median(tr.self_ms("core.phase2")), "ms");
  rep.add("core.check_cds_p50_ms", median(tr.self_ms("core.check_cds")),
          "ms");
  rep.add("core.mis_size", mis / kFields, "count");
  rep.add("core.connectors", connectors / kFields, "count");
  rep.add("core.connectors_per_mis", connectors / mis, "ratio");
  rep.add("par.build_speedup",
          median(tr.self_ms("udg.build_udg_serial")) / build, "ratio");
  rep.add("trace_overhead_frac", median(traced_ms) / median(plain_ms) - 1.0,
          "ratio");
  rep.add("op_samples", static_cast<double>(traced_ms.size()), "count");
  if (!o.spans_out.empty() && !tr.write(o.spans_out)) {
    rep.fail("cannot write spans to " + o.spans_out);
  }
  return rep;
}

}  // namespace mcds::perfbench
