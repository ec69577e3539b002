#include "par/batch_solver.hpp"

#include <chrono>

#include "core/greedy_connect.hpp"
#include "core/waf.hpp"

namespace mcds::par {

BatchResult BatchSolver::solve(std::span<const udg::UdgInstance> corpus,
                               const BatchSolveFn& solver) const {
  const auto start = std::chrono::steady_clock::now();
  BatchResult r;
  r.outcomes.resize(corpus.size());
  // One task per instance: instance solves dominate task overhead by
  // orders of magnitude, and per-instance granularity lets a free worker
  // take the next instance on skewed corpora.
  parallel_for(pool_, corpus.size(), 1,
               [&corpus, &r, &solver](std::size_t begin, std::size_t end,
                                      std::size_t /*chunk*/) {
                 for (std::size_t i = begin; i < end; ++i) {
                   // Containment boundary: a throwing solve poisons its
                   // own slot only. The catch writes a fresh outcome, so
                   // partial writes by the solver cannot leak through.
                   try {
                     r.outcomes[i] = solver(corpus[i]);
                   } catch (const std::exception& e) {
                     r.outcomes[i] = BatchOutcome{};
                     r.outcomes[i].failed = true;
                     r.outcomes[i].error = e.what();
                     r.outcomes[i].nodes = corpus[i].graph.num_nodes();
                   } catch (...) {
                     r.outcomes[i] = BatchOutcome{};
                     r.outcomes[i].failed = true;
                     r.outcomes[i].error = "unknown exception";
                     r.outcomes[i].nodes = corpus[i].graph.num_nodes();
                   }
                 }
               });

  // Aggregate strictly in corpus order: summarize() over index-ordered
  // observations is what makes the Summary fields thread-count
  // invariant. Failed slots are skipped, not zero-filled — a failure
  // must not drag the corpus statistics.
  std::vector<double> sizes, doms, fracs;
  sizes.reserve(r.outcomes.size());
  doms.reserve(r.outcomes.size());
  fracs.reserve(r.outcomes.size());
  for (const BatchOutcome& o : r.outcomes) {
    if (o.failed) {
      ++r.failed;
      continue;
    }
    sizes.push_back(static_cast<double>(o.cds.size()));
    doms.push_back(static_cast<double>(o.dominators));
    fracs.push_back(o.nodes == 0 ? 0.0
                                 : static_cast<double>(o.cds.size()) /
                                       static_cast<double>(o.nodes));
  }
  r.cds_size = sim::summarize(sizes);
  r.dominators = sim::summarize(doms);
  r.backbone_fraction = sim::summarize(fracs);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (obs_.metrics) {
    obs_.metrics->gauge("par.batch.instances")
        .set(static_cast<double>(corpus.size()));
    if (r.failed > 0) obs_.metrics->counter("par.batch.failed").add(r.failed);
    obs_.metrics->gauge("par.batch.wall_seconds").set(r.wall_seconds);
    pool_->publish(*obs_.metrics);
  }
  return r;
}

BatchOutcome solve_greedy(const udg::UdgInstance& inst) {
  auto result = core::greedy_cds(inst.graph, 0);
  BatchOutcome o;
  o.cds = std::move(result.cds);
  o.dominators = result.phase1.mis.size();
  o.nodes = inst.graph.num_nodes();
  return o;
}

BatchOutcome solve_waf(const udg::UdgInstance& inst) {
  auto result = core::waf_cds(inst.graph, 0);
  BatchOutcome o;
  o.cds = std::move(result.cds);
  o.dominators = result.phase1.mis.size();
  o.nodes = inst.graph.num_nodes();
  return o;
}

std::vector<udg::UdgInstance> make_corpus(const udg::InstanceParams& params,
                                          std::size_t count,
                                          std::uint64_t seed0) {
  std::vector<udg::UdgInstance> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    corpus.push_back(
        udg::generate_largest_component_instance(params, seed0 + i));
  }
  return corpus;
}

}  // namespace mcds::par
