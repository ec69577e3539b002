// Workload `churn`: one dyn::DynamicCds over a 10^5-node field, fed the
// seeded `mcds_cli dynamic` event stream (revive / crash / move). Every
// event runs grid delta -> overlay apply -> local repair.

#include <memory>

#include "common.hpp"
#include "core/local_repair.hpp"
#include "dyn/dynamic_cds.hpp"
#include "graph/delta_graph.hpp"
#include "udg/grid_index.hpp"

namespace mcds::perfbench {

namespace {

constexpr std::size_t kNodes = 100000;
/// Stream length per second of --seconds: the stream is fixed by the
/// seed and --seconds, so its work counts repeat exactly.
constexpr double kEventsPerSecond = 1750.0;
/// DynamicCds::check() runs (untimed) after every this many events.
constexpr std::size_t kCheckEvery = 5000;

using Kind = ChurnStream::Kind;

dyn::EventReport apply(dyn::DynamicCds& engine, const ChurnStream::Event& e) {
  switch (e.kind) {
    case Kind::kMove: return engine.move(e.node, e.pos);
    case Kind::kErase: return engine.erase(e.node);
    case Kind::kRevive: return engine.revive(e.node, e.pos);
  }
  return {};
}

/// DynamicCds's three layers, owned and driven the way DynamicCds does.
struct Composed {
  const dyn::DynParams params{};
  udg::GridIndex grid;
  graph::DeltaGraph g;
  core::LocalBackbone backbone;
  graph::EdgeDelta delta;
  std::size_t rebuilds = 0;

  explicit Composed(const std::vector<geom::Vec2>& points)
      : grid(points, params.radius),
        g(grid.build_graph(), params.compact_fraction,
          params.compact_min_edits),
        backbone(g, grid.alive_flags()) {}

  /// One event, composed as DynamicCds::finish composes it, with a span
  /// around each layer call.
  core::RepairStats event(const ChurnStream::Event& e, Tracer& tr,
                          std::uint64_t op) {
    Tracer::Scope whole(tr, "dyn.event", op);
    core::NodeChange change = core::NodeChange::kNone;
    {
      Tracer::Scope span(tr, "udg.grid_delta", op);
      delta.clear();
      switch (e.kind) {
        case Kind::kMove:
          grid.move(e.node, e.pos, delta);
          break;
        case Kind::kErase:
          grid.erase(e.node, delta);
          change = core::NodeChange::kDied;
          break;
        case Kind::kRevive:
          grid.revive(e.node, e.pos, delta);
          change = core::NodeChange::kBorn;
          break;
      }
    }
    {
      Tracer::Scope span(tr, "graph.overlay_apply", op);
      g.apply(delta);
    }
    core::RepairStats st;
    {
      Tracer::Scope span(tr, "core.local_repair", op);
      st = backbone.on_event(g, grid.alive_flags(), e.node, change, delta);
    }
    if (backbone.envelope_exceeded(params.envelope_factor,
                                   params.envelope_bias)) {
      Tracer::Scope span(tr, "core.rebuild_connectors", op);
      backbone.rebuild_connectors(g, grid.alive_flags());
      ++rebuilds;
    }
    if (g.compaction_due()) {
      Tracer::Scope span(tr, "graph.compact", op);
      g.compact();
    }
    return st;
  }
};

}  // namespace

Report run_churn(const Options& o) {
  Report rep;
  Field field;
  std::unique_ptr<dyn::DynamicCds> engine;
  std::unique_ptr<ChurnStream> stream;
  std::unique_ptr<Composed> composed;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps(o); ++k) {
    engine.reset();
    composed.reset();
    const auto t0 = Clock::now();
    field = make_field(kNodes, o.seed, 200);
    engine = std::make_unique<dyn::DynamicCds>(field.points);
    stream = std::make_unique<ChurnStream>(field, o.seed, 201);
    if (o.trace) composed = std::make_unique<Composed>(field.points);
    // Warm-up: the stream's first event, untimed.
    const ChurnStream::Event warm = stream->next();
    apply(*engine, warm);
    if (composed) {
      Tracer warmup_spans;
      composed->event(warm, warmup_spans, 0);
    }
    setup_s.push_back(seconds_since(t0));
  }
  rep.notes.push_back(describe("field", field));

  // The stream length is fixed by --seconds; half of it in a traced run,
  // which replays every event through both engines.
  const auto events = static_cast<std::size_t>(
      kEventsPerSecond * o.seconds * (o.trace ? 0.5 : 1.0));
  const double cap_s = std::min(150.0, 6.0 * o.seconds);
  rep.notes.push_back("stream: " + std::to_string(events) + " events after " +
                      "one warm-up event; check() every " +
                      std::to_string(kCheckEvery));

  const auto check = [&](const char* when) {
    ++rep.attempted;
    const core::CdsCheck c = engine->check();
    if (!c.ok) rep.fail(std::string("check() ") + when + ": " + c.describe());
  };

  Tracer tr;
  std::vector<double> plain_ms, traced_ms, delta_edges, scope;
  std::size_t changes = 0;
  const auto start = Clock::now();
  std::size_t done = 0;
  for (; done < events; ++done) {
    if (seconds_since(start) > cap_s) {
      rep.notes.push_back("stopped at the time cap: work counts are partial");
      break;
    }
    const ChurnStream::Event e = stream->next();
    ++rep.attempted;
    try {
      dyn::EventReport r;
      core::RepairStats st;
      const auto run_plain = [&] {
        const auto t0 = Clock::now();
        r = apply(*engine, e);
        plain_ms.push_back(ms_between(t0, Clock::now()));
      };
      const auto run_composed = [&] {
        const auto t0 = Clock::now();
        st = composed->event(e, tr, done);
        traced_ms.push_back(ms_between(t0, Clock::now()));
      };
      // In a traced run the two engines take turns going first, so neither
      // gains from the other's warm caches on average.
      if (composed && done % 2 == 1) run_composed();
      run_plain();
      if (composed && done % 2 == 0) run_composed();
      if (composed) {
        delta_edges.push_back(static_cast<double>(
            composed->delta.added.size() + composed->delta.removed.size()));
        scope.push_back(static_cast<double>(st.scope));
        if (st.changed()) ++changes;
        if (st.scope != r.repair.scope || st.changed() != r.repair.changed()) {
          rep.fail("differential: composed repair differs at event " +
                   std::to_string(done));
        }
      }
    } catch (const std::exception& ex) {
      rep.fail("event " + std::to_string(done) + " threw: " + ex.what());
      break;
    }
    if ((done + 1) % kCheckEvery == 0) check("mid-stream");
  }
  check("at end of stream");

  if (!o.trace) {
    double busy_s = 0.0;
    for (const double ms : plain_ms) busy_s += ms * 1e-3;
    rep.add("setup_s", median(setup_s), "s");
    add_latency_metrics(rep, plain_ms);
    rep.add("ops_per_s", static_cast<double>(plain_ms.size()) / busy_s,
            "1/s");
    rep.add("backbone_frac",
            static_cast<double>(engine->cds_size()) /
                static_cast<double>(engine->alive_count()),
            "ratio");
    rep.add("dyn.rebuilds", static_cast<double>(engine->rebuilds()), "count");
    rep.add("dyn.compactions", static_cast<double>(engine->compactions()),
            "count");
    return rep;
  }

  if (engine->cds() != composed->backbone.cds() ||
      engine->mis() != composed->backbone.mis() ||
      engine->rebuilds() != composed->rebuilds ||
      engine->compactions() != composed->g.compactions()) {
    rep.fail("differential: composed backbone differs after the stream");
  }
  const auto us = [](std::vector<double> ms) {
    for (double& v : ms) v *= 1e3;
    return ms;
  };
  const std::vector<double> grid_us = us(tr.self_ms("udg.grid_delta"));
  const std::vector<double> apply_us = us(tr.self_ms("graph.overlay_apply"));
  const std::vector<double> repair_us = us(tr.self_ms("core.local_repair"));
  double repair_sum = 0.0, event_sum = 0.0, scope_sum = 0.0;
  for (const double v : repair_us) repair_sum += v;
  for (const double v : tr.total_ms("dyn.event")) event_sum += v * 1e3;
  for (const double v : scope) scope_sum += v;
  rep.add("udg.grid_delta_p50_us", median(grid_us), "us");
  rep.add("udg.grid_delta_p99_us", quantile(grid_us, 0.99), "us");
  rep.add("udg.delta_edges", mean(delta_edges), "count");
  rep.add("graph.overlay_apply_p50_us", median(apply_us), "us");
  rep.add("graph.overlay_apply_p99_us", quantile(apply_us, 0.99), "us");
  rep.add("graph.compact_ms", mean(tr.self_ms("graph.compact")), "ms");
  rep.add("dyn.compactions", static_cast<double>(composed->g.compactions()),
          "count");
  rep.add("core.local_repair_p50_us", median(repair_us), "us");
  rep.add("core.local_repair_p99_us", quantile(repair_us, 0.99), "us");
  rep.add("core.repair_scope_p50", median(scope), "count");
  rep.add("core.repair_scope_p99", quantile(scope, 0.99), "count");
  rep.add("core.repair_scope_sum", scope_sum, "count");
  rep.add("core.repair_scope_per_change",
          changes == 0 ? 0.0 : scope_sum / static_cast<double>(changes),
          "count");
  rep.add("core.repair_time_share", repair_sum / event_sum, "ratio");
  rep.add("core.rebuild_connectors_ms",
          mean(tr.self_ms("core.rebuild_connectors")), "ms");
  rep.add("dyn.rebuilds", static_cast<double>(composed->rebuilds), "count");
  rep.add("core.backbone_per_mis",
          static_cast<double>(composed->backbone.cds_size()) /
              static_cast<double>(composed->backbone.mis_size()),
          "ratio");
  rep.add("trace_overhead_frac", median(traced_ms) / median(plain_ms) - 1.0,
          "ratio");
  rep.add("op_samples", static_cast<double>(traced_ms.size()), "count");
  if (!o.spans_out.empty() && !tr.write(o.spans_out)) {
    rep.fail("cannot write spans to " + o.spans_out);
  }
  return rep;
}

}  // namespace mcds::perfbench
