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

std::vector<NodeId> flags_to_sorted(const std::vector<std::uint8_t>& in) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < in.size(); ++v) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

/// Phase 1 behind the unit and weighted entry points: seeds with the
/// BFS first-fit MIS, then repeatedly adds the node with the largest
/// deficit reduction — per unit of its weight when \p weight is not
/// empty — until no node outside the set is short of m dominators.
/// Exact under a lazy queue: cover counts only grow, so every stored
/// score is an upper bound.
std::vector<NodeId> deficit_greedy(const Graph& g, std::uint32_t m,
                                   std::span<const double> weight,
                                   NodeId root, const obs::Obs& obs) {
  obs::ScopedTimer timer(obs, "kmcds.phase1_mfold");
  const MisResult mis = bfs_first_fit_mis(g, root);
  std::vector<std::uint8_t> in_d(g.num_nodes(), 0);
  for (const NodeId v : mis.mis) in_d[v] = 1;

  const graph::FrozenGraph fg(g);
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

  // score(u) = deficit_reduction(u), per unit of u's weight when weights
  // are given, where deficit_reduction(u) = u's own residual deficit (it
  // stops needing coverage the moment it joins) plus one unit per
  // still-deficient neighbor it would cover. A double holds every
  // reduction exactly, so unit scores order and tie as integers would.
  const auto score = [&](NodeId u) {
    std::size_t r = cover[u] < m ? m - cover[u] : 0;
    for (const NodeId v : fg.neighbors(u)) {
      if (!in_d[v] && cover[v] < m) ++r;
    }
    const auto s = static_cast<double>(r);
    return weight.empty() ? s : s / weight[u];
  };

  struct Entry {
    double score;
    NodeId node;
    bool operator<(const Entry& other) const noexcept {
      if (score != other.score) return score < other.score;  // max-score first
      return node > other.node;                              // then smallest id
    }
  };
  std::priority_queue<Entry> heap;
  for (NodeId u = 0; u < n; ++u) {
    if (in_d[u]) continue;
    const double s = score(u);
    if (s > 0) heap.push({s, u});
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
    const double s = score(top.node);
    if (s == 0) continue;  // deficit fully covered meanwhile: retire
    if (s != top.score) {
      heap.push({s, top.node});  // stale upper bound: re-rank
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
  return flags_to_sorted(in_d);
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

/// Phases 2a (connect) and 2b (k = 2 biconnect) over the phase-1 set in
/// result.dominators, shared by the unit and weighted pipelines: the
/// engine ranks connectors per unit of \p weight when it is not empty.
/// result.weight sums the backbone's weights, or counts its nodes.
void finish_kmcds(const Graph& g, std::span<const double> weight,
                  KmCdsResult& result, const obs::Obs& obs) {
  ConnectorEngine engine(g, result.dominators, obs, weight);
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
  if (weight.empty()) {
    result.weight = static_cast<double>(result.backbone.size());
  } else {
    for (const NodeId v : result.backbone) result.weight += weight[v];
  }
}

}  // namespace

std::vector<NodeId> m_fold_dominators(const Graph& g, std::uint32_t m,
                                      NodeId root, const obs::Obs& obs) {
  KmParams{1, m}.validate();
  return deficit_greedy(g, m, {}, root, obs);
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
  return deficit_greedy(g, m, weight, root, obs);
}

KmCdsResult kmcds(const Graph& g, KmParams params, NodeId root,
                  const obs::Obs& obs) {
  params.validate();
  KmCdsResult result;
  result.params = params;
  result.dominators = m_fold_dominators(g, params.m, root, obs);
  finish_kmcds(g, {}, result, obs);
  return result;
}

KmCdsResult kmcds_weighted(const Graph& g, std::uint32_t m,
                           std::span<const double> weight, NodeId root,
                           const obs::Obs& obs) {
  KmCdsResult result;
  result.params = {1, m};
  result.dominators = m_fold_dominators_weighted(g, m, weight, root, obs);
  finish_kmcds(g, weight, result, obs);
  return result;
}

}  // namespace mcds::core
