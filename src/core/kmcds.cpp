#include "core/kmcds.hpp"

#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "core/connector_engine.hpp"
#include "core/validate.hpp"
#include "obs/timer.hpp"

namespace mcds::core {

void KmParams::validate() const {
  if (k < 1 || k > 2) {
    throw std::invalid_argument("KmParams: k must be 1 or 2");
  }
  if (m < 1) {
    throw std::invalid_argument("KmParams: m must be >= 1");
  }
}

namespace {

// ------------------------------------------------------------- phase 1

/// The deficit greedy shared by the unit and weighted phase-1 variants.
/// Starting from the seed flags (the BFS MIS), repeatedly adds the
/// node maximizing score_of(u, deficit_reduction(u)) until no node
/// outside the set is short of m dominators. Exact under a lazy queue:
/// cover counts only grow, so every stored score is an upper bound.
template <class Score, class ScoreFn>
void deficit_greedy(const graph::FrozenGraph& fg, std::uint32_t m,
                    std::vector<std::uint8_t>& in_d, ScoreFn score_of,
                    const obs::Obs& obs) {
  const std::size_t n = fg.num_nodes();
  std::vector<std::uint32_t> cover(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : fg.neighbors(v)) {
      if (in_d[u]) ++cover[v];
    }
  }
  std::size_t total_deficit = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!in_d[v] && cover[v] < m) total_deficit += m - cover[v];
  }

  // deficit_reduction(u) = u's own residual deficit (it stops needing
  // coverage the moment it joins) plus one unit per still-deficient
  // neighbor it would cover.
  const auto reduction = [&](NodeId u) -> std::size_t {
    std::size_t r = cover[u] < m ? m - cover[u] : 0;
    for (const NodeId v : fg.neighbors(u)) {
      if (!in_d[v] && cover[v] < m) ++r;
    }
    return r;
  };

  struct Entry {
    Score score;
    NodeId node;
    bool operator<(const Entry& other) const noexcept {
      if (score != other.score) return score < other.score;  // max-score first
      return node > other.node;                              // then smallest id
    }
  };
  std::priority_queue<Entry> heap;
  for (NodeId u = 0; u < n; ++u) {
    if (in_d[u]) continue;
    const std::size_t r = reduction(u);
    if (r > 0) heap.push({score_of(u, r), u});
  }

  obs::Counter* c_added = obs.counter("kmcds.phase1_added");
  obs::Counter* c_stale = obs.counter("kmcds.phase1_stale_rescores");
  while (total_deficit > 0) {
    if (heap.empty()) {
      // Unreachable: a deficient node always scores positive for itself.
      throw std::logic_error("m_fold_dominators: deficit with empty queue");
    }
    const Entry top = heap.top();
    heap.pop();
    if (in_d[top.node]) continue;
    const std::size_t r = reduction(top.node);
    if (r == 0) continue;  // deficit fully covered meanwhile: retire
    const Score score = score_of(top.node, r);
    if (score != top.score) {
      heap.push({score, top.node});  // stale upper bound: re-rank
      if (c_stale) c_stale->add();
      continue;
    }
    in_d[top.node] = 1;
    if (c_added) c_added->add();
    total_deficit -= cover[top.node] < m ? m - cover[top.node] : 0;
    for (const NodeId v : fg.neighbors(top.node)) {
      if (!in_d[v] && cover[v] < m) --total_deficit;
      ++cover[v];
    }
  }
}

std::vector<NodeId> flags_to_sorted(const std::vector<std::uint8_t>& in) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < in.size(); ++v) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

// ------------------------------------------------------------ phase 2b

/// The k=2 augmentation: recruit nodes until every cut vertex of
/// G[members] is excusable (no two member fragments share a component
/// of G - v). Each round patches the smallest avoidable cut vertex with
/// the cheapest path around it — a 0/1 BFS inside the shared component
/// where existing members are free and recruits cost one — so every
/// round adds at least one node and the loop ends after at most n
/// rounds.
std::vector<NodeId> biconnect_augment(const Graph& g,
                                      std::vector<std::uint8_t>& in_b,
                                      const obs::Obs& obs) {
  obs::ScopedTimer timer(obs, "kmcds.phase2_biconnect");
  obs::Counter* c_aug = obs.counter("kmcds.augmenters");
  std::vector<NodeId> recruits;
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  for (;;) {
    const std::vector<NodeId> members = flags_to_sorted(in_b);
    const AvoidableCut found = find_avoidable_cut(g, members);
    if (found.cut == graph::kNoNode) return recruits;
    const NodeId cut = found.cut;
    const std::vector<std::uint32_t>& labels = found.fragment;
    // Source fragment: the one holding the smallest member of the shared
    // component of G - cut (a fragment is connected in G - cut, so it
    // lies entirely inside one component of G - cut).
    const std::uint32_t source_label = found.source;
    // 0/1 BFS over G - cut: members free, recruits cost one.
    std::vector<std::size_t> dist(g.num_nodes(), kInf);
    std::vector<NodeId> parent(g.num_nodes(), graph::kNoNode);
    std::deque<NodeId> queue;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (labels[i] == source_label) {
        dist[members[i]] = 0;
        queue.push_back(members[i]);
      }
    }
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : g.neighbors(u)) {
        if (v == cut) continue;
        const std::size_t nd = dist[u] + (in_b[v] ? 0 : 1);
        if (nd < dist[v]) {
          dist[v] = nd;
          parent[v] = u;
          if (in_b[v]) {
            queue.push_front(v);
          } else {
            queue.push_back(v);
          }
        }
      }
    }
    // Cheapest member of any other fragment; ties to the smallest id.
    NodeId target = graph::kNoNode;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == cut || labels[i] == source_label) continue;
      if (dist[members[i]] == kInf) continue;
      if (target == graph::kNoNode || dist[members[i]] < dist[target] ||
          (dist[members[i]] == dist[target] && members[i] < target)) {
        target = members[i];
      }
    }
    if (target == graph::kNoNode) {
      // Unreachable by construction: the shared component holds a member
      // of another fragment, and the BFS covers that whole component.
      throw std::logic_error("kmcds: biconnect patch target vanished");
    }
    bool added = false;
    for (NodeId u = target; u != graph::kNoNode; u = parent[u]) {
      if (!in_b[u]) {
        in_b[u] = 1;
        recruits.push_back(u);
        if (c_aug) c_aug->add();
        added = true;
      }
    }
    if (!added) {
      // A zero-cost path would mean the fragments were already one.
      throw std::logic_error("kmcds: biconnect patch added no node");
    }
  }
}

}  // namespace

std::vector<NodeId> m_fold_dominators(const Graph& g, std::uint32_t m,
                                      NodeId root, const obs::Obs& obs) {
  KmParams{1, m}.validate();
  obs::ScopedTimer timer(obs, "kmcds.phase1_mfold");
  const MisResult mis = bfs_first_fit_mis(g, root);
  std::vector<std::uint8_t> in_d(g.num_nodes(), 0);
  for (const NodeId v : mis.mis) in_d[v] = 1;
  deficit_greedy<std::uint64_t>(
      graph::FrozenGraph(g), m, in_d,
      [](NodeId, std::size_t r) { return static_cast<std::uint64_t>(r); },
      obs);
  return flags_to_sorted(in_d);
}

std::vector<NodeId> m_fold_dominators_weighted(const Graph& g, std::uint32_t m,
                                               std::span<const double> weight,
                                               NodeId root,
                                               const obs::Obs& obs) {
  KmParams{1, m}.validate();
  if (weight.size() != g.num_nodes()) {
    throw std::invalid_argument("m_fold_dominators_weighted: weight size");
  }
  for (const double w : weight) {
    if (!(w > 0.0)) {
      throw std::invalid_argument(
          "m_fold_dominators_weighted: weights must be positive");
    }
  }
  obs::ScopedTimer timer(obs, "kmcds.phase1_mfold");
  const MisResult mis = bfs_first_fit_mis(g, root);
  std::vector<std::uint8_t> in_d(g.num_nodes(), 0);
  for (const NodeId v : mis.mis) in_d[v] = 1;
  deficit_greedy<double>(
      graph::FrozenGraph(g), m, in_d,
      [weight](NodeId u, std::size_t r) {
        return static_cast<double>(r) / weight[u];
      },
      obs);
  return flags_to_sorted(in_d);
}

namespace {

/// Phases 2a (connect) and 2b (k=2 biconnect) over a phase-1 set, shared
/// by the unit and weighted pipelines. \p engine must already be seeded
/// with result.dominators.
template <class Engine>
void finish_kmcds(const Graph& g, Engine& engine, KmCdsResult& result,
                  const obs::Obs& obs) {
  {
    obs::ScopedTimer timer(obs, "kmcds.phase2_connect");
    while (!engine.done()) {
      result.connectors.push_back(engine.select_next().node);
    }
  }
  std::vector<std::uint8_t> in_b(g.num_nodes(), 0);
  for (const NodeId v : result.dominators) in_b[v] = 1;
  for (const NodeId v : result.connectors) in_b[v] = 1;
  if (result.params.k == 2) {
    result.augmenters = biconnect_augment(g, in_b, obs);
  }
  result.backbone = flags_to_sorted(in_b);
}

}  // namespace

KmCdsResult kmcds(const Graph& g, KmParams params, NodeId root,
                  const obs::Obs& obs) {
  params.validate();
  KmCdsResult result;
  result.params = params;
  result.dominators = m_fold_dominators(g, params.m, root, obs);
  ConnectorEngine engine(g, result.dominators, obs);
  finish_kmcds(g, engine, result, obs);
  result.weight = static_cast<double>(result.backbone.size());
  return result;
}

KmCdsResult kmcds_weighted(const Graph& g, std::uint32_t m,
                           std::span<const double> weight, NodeId root,
                           const obs::Obs& obs) {
  KmCdsResult result;
  result.params = {1, m};
  result.dominators = m_fold_dominators_weighted(g, m, weight, root, obs);
  WeightedConnectorEngine engine(g, result.dominators, weight, obs);
  finish_kmcds(g, engine, result, obs);
  for (const NodeId v : result.backbone) result.weight += weight[v];
  return result;
}

}  // namespace mcds::core
