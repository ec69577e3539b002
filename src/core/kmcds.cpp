#include "core/kmcds.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "core/connector_engine.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"
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

std::vector<std::uint8_t> membership_flags(const Graph& g,
                                           std::span<const NodeId> set) {
  std::vector<std::uint8_t> in(g.num_nodes(), 0);
  for (const NodeId v : set) {
    if (v >= g.num_nodes()) {
      throw std::invalid_argument("kmcds: node out of range");
    }
    in[v] = 1;
  }
  return in;
}

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

// ------------------------------------------- articulation / k=2 helpers

/// Articulation flags of \p g (iterative Tarjan lowlink, any number of
/// components). art[v] == true iff removing v increases the component
/// count of the component containing it.
std::vector<std::uint8_t> articulation_flags(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint8_t> art(n, 0);
  std::vector<std::uint32_t> disc(n, 0);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<NodeId> parent(n, graph::kNoNode);
  std::uint32_t timer = 0;
  struct Frame {
    NodeId u;
    std::size_t next;
  };
  std::vector<Frame> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (disc[s] != 0) continue;
    disc[s] = low[s] = ++timer;
    stack.push_back({s, 0});
    std::size_t root_children = 0;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto nbrs = g.neighbors(f.u);
      if (f.next < nbrs.size()) {
        const NodeId v = nbrs[f.next++];
        if (disc[v] == 0) {
          parent[v] = f.u;
          if (f.u == s) ++root_children;
          disc[v] = low[v] = ++timer;
          stack.push_back({v, 0});
        } else if (v != parent[f.u]) {
          low[f.u] = std::min(low[f.u], disc[v]);
        }
      } else {
        const NodeId u = f.u;
        stack.pop_back();
        if (!stack.empty()) {
          const NodeId p = stack.back().u;
          low[p] = std::min(low[p], low[u]);
          if (p != s && low[u] >= disc[p]) art[p] = 1;
        }
      }
    }
    if (root_children >= 2) art[s] = 1;
  }
  return art;
}

constexpr std::uint32_t kNoLabel = std::numeric_limits<std::uint32_t>::max();

/// Component labels of G - avoid over all nodes (\p avoid gets
/// kNoLabel).
std::vector<std::uint32_t> components_avoiding(const Graph& g, NodeId avoid) {
  std::vector<std::uint32_t> comp(g.num_nodes(), kNoLabel);
  std::uint32_t count = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (s == avoid || comp[s] != kNoLabel) continue;
    comp[s] = count++;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : g.neighbors(u)) {
        if (v == avoid || comp[v] != kNoLabel) continue;
        comp[v] = comp[u];
        queue.push_back(v);
      }
    }
  }
  return comp;
}

/// The avoidability test for a cut member \p v, per fragment: \p v is
/// avoidable iff two member fragments of G[members] - v land in the
/// same component of G - v (the topology could hold them together, the
/// backbone fails to). Returns that component's label, or kNoLabel when
/// every split is topology-forced. A global mutual-reachability test is
/// NOT enough: one fragment marooned by the topology must not excuse an
/// avoidable split between two others.
std::uint32_t avoidable_component(std::span<const NodeId> members,
                                  const std::vector<std::uint32_t>& labels,
                                  NodeId v,
                                  const std::vector<std::uint32_t>& gcomp,
                                  std::size_t num_nodes) {
  std::vector<std::uint32_t> first_frag(num_nodes, kNoLabel);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == v) continue;
    const std::uint32_t c = gcomp[members[i]];
    if (first_frag[c] == kNoLabel) {
      first_frag[c] = labels[i];
    } else if (first_frag[c] != labels[i]) {
      return c;
    }
  }
  return kNoLabel;
}

/// Fragment labels of members \ {avoid} inside G[members] - avoid, in
/// the order of \p members (entries for avoid get kNoLabel). Returns
/// the fragment count.

std::pair<std::vector<std::uint32_t>, std::size_t> fragments_without(
    const Graph& g, std::span<const NodeId> members,
    const std::vector<std::uint8_t>& in_set, NodeId avoid) {
  std::vector<std::uint32_t> label_of(g.num_nodes(), kNoLabel);
  std::size_t fragments = 0;
  std::deque<NodeId> queue;
  for (const NodeId seed : members) {
    if (seed == avoid || label_of[seed] != kNoLabel) continue;
    const auto label = static_cast<std::uint32_t>(fragments++);
    label_of[seed] = label;
    queue.push_back(seed);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : g.neighbors(u)) {
        if (v == avoid || !in_set[v] || label_of[v] != kNoLabel) continue;
        label_of[v] = label;
        queue.push_back(v);
      }
    }
  }
  std::vector<std::uint32_t> labels;
  labels.reserve(members.size());
  for (const NodeId v : members) {
    labels.push_back(v == avoid ? kNoLabel : label_of[v]);
  }
  return {std::move(labels), fragments};
}

/// The first avoidable cut of G[members], scanning members ascending: a
/// cut vertex v of the backbone with two member fragments of
/// G[members] - v in one component of G - v. The one scan behind both
/// the k=2 builder and its validator, so the two cannot apply different
/// rules. Members must be ascending.
struct AvoidableCut {
  NodeId cut = graph::kNoNode;  ///< kNoNode: every cut is excusable
  /// Fragment label of each member in G[members] - cut, in member order
  /// (kNoLabel for the cut itself).
  std::vector<std::uint32_t> fragment;
  /// Component label of every node in G - cut (kNoLabel for the cut).
  std::vector<std::uint32_t> gcomp;
  /// The component of G - cut that holds two fragments.
  std::uint32_t shared = kNoLabel;
};

AvoidableCut find_avoidable_cut(const Graph& g,
                                std::span<const NodeId> members,
                                const std::vector<std::uint8_t>& in_set) {
  AvoidableCut out;
  if (members.size() < 3) return out;  // removal leaves <= 1 member
  const auto sub = graph::induced_subgraph(g, members);
  const auto art = articulation_flags(sub.graph);
  for (NodeId i = 0; i < members.size(); ++i) {
    if (!art[i]) continue;
    const NodeId v = members[i];  // sub.mapping preserves ascending order
    auto [fragment, fragments] = fragments_without(g, members, in_set, v);
    if (fragments < 2) continue;  // stale flag (cannot happen, be safe)
    auto gcomp = components_avoiding(g, v);
    const std::uint32_t shared =
        avoidable_component(members, fragment, v, gcomp, g.num_nodes());
    if (shared == kNoLabel) continue;  // every split is topology-forced
    out.cut = v;
    out.fragment = std::move(fragment);
    out.gcomp = std::move(gcomp);
    out.shared = shared;
    return out;
  }
  return out;
}

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
    const AvoidableCut found = find_avoidable_cut(g, members, in_b);
    if (found.cut == graph::kNoNode) return recruits;
    const NodeId cut = found.cut;
    const std::vector<std::uint32_t>& labels = found.fragment;
    const std::vector<std::uint32_t>& gcomp = found.gcomp;
    const std::uint32_t patch_comp = found.shared;

    // Source fragment: the one holding the smallest member of the
    // shared component (a fragment is connected in G - cut, so it lies
    // entirely inside one component of G - cut).
    std::uint32_t source_label = kNoLabel;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] != cut && gcomp[members[i]] == patch_comp) {
        source_label = labels[i];
        break;
      }
    }
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

// ------------------------------------------------------------ validators

std::string KmCheck::describe() const {
  switch (defect) {
    case KmDefect::kNone:
      return "valid (k,m)-CDS";
    case KmDefect::kEmpty:
      return "empty set on a non-empty graph";
    case KmDefect::kUnderCovered:
      return "node " + std::to_string(witness) + " has " +
             std::to_string(observed) + " of " + std::to_string(required) +
             " required dominators";
    case KmDefect::kDisconnected:
      return "backbone is disconnected: members " + std::to_string(witness) +
             " and " + std::to_string(witness2) +
             " lie in different components of G[set]";
    case KmDefect::kCutVertex:
      return "member " + std::to_string(witness) +
             " is an avoidable cut vertex: its loss splits the backbone "
             "(member " +
             std::to_string(witness2) +
             " cut off) although it stays reachable in G - " +
             std::to_string(witness);
  }
  return "unknown defect";
}

namespace {

/// m-fold coverage sweep: smallest node outside the set with fewer than
/// m set neighbors, plus its observed coverage. kNoNode when covered.
std::pair<NodeId, std::size_t> first_under_covered(
    const graph::FrozenGraph& fg, const std::vector<std::uint8_t>& in,
    std::uint32_t m) {
  for (NodeId v = 0; v < fg.num_nodes(); ++v) {
    if (in[v]) continue;
    std::size_t count = 0;
    for (const NodeId u : fg.neighbors(v)) {
      if (in[u] && ++count >= m) break;
    }
    if (count < m) return {v, count};
  }
  return {graph::kNoNode, 0};
}

/// The k=2 leg on one member list (one topology component): the
/// smallest avoidable cut vertex, with a witness from a severed
/// fragment. Members must be ascending.
KmCheck cut_vertex_check(const Graph& g, std::span<const NodeId> members,
                         const std::vector<std::uint8_t>& in_set) {
  KmCheck out;
  const AvoidableCut found = find_avoidable_cut(g, members, in_set);
  if (found.cut == graph::kNoNode) return out;
  out.ok = false;
  out.defect = KmDefect::kCutVertex;
  out.witness = found.cut;
  // witness2: first member of the shared component outside its smallest
  // member's fragment.
  std::uint32_t first_label = kNoLabel;
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (members[j] == found.cut || found.gcomp[members[j]] != found.shared) {
      continue;
    }
    if (first_label == kNoLabel) {
      first_label = found.fragment[j];
    } else if (found.fragment[j] != first_label) {
      out.witness2 = members[j];
      break;
    }
  }
  return out;
}

}  // namespace

KmCheck check_kmcds(const Graph& g, std::span<const NodeId> set,
                    KmParams params) {
  params.validate();
  KmCheck out;
  out.required = params.m;
  if (g.num_nodes() == 0) {
    if (!set.empty()) {
      throw std::invalid_argument("kmcds: node out of range");
    }
    return out;
  }
  const auto in = membership_flags(g, set);
  if (set.empty()) {
    out.ok = false;
    out.defect = KmDefect::kEmpty;
    return out;
  }
  const auto [uncovered, observed] =
      first_under_covered(graph::FrozenGraph(g), in, params.m);
  if (uncovered != graph::kNoNode) {
    out.ok = false;
    out.defect = KmDefect::kUnderCovered;
    out.witness = uncovered;
    out.observed = observed;
    return out;
  }
  const auto [labels, components] = graph::subset_components(g, set);
  if (components > 1) {
    out.ok = false;
    out.defect = KmDefect::kDisconnected;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (labels[i] == 0 && out.witness == graph::kNoNode) out.witness = set[i];
      if (labels[i] == 1 && out.witness2 == graph::kNoNode) {
        out.witness2 = set[i];
      }
    }
    return out;
  }
  if (params.k == 2) {
    std::vector<NodeId> members(set.begin(), set.end());
    std::sort(members.begin(), members.end());
    KmCheck cut = cut_vertex_check(g, members, in);
    if (!cut.ok) {
      cut.required = params.m;
      return cut;
    }
  }
  return out;
}

KmCheck check_kmcds_components(const Graph& g, std::span<const NodeId> set,
                               KmParams params) {
  params.validate();
  KmCheck out;
  out.required = params.m;
  if (g.num_nodes() == 0) {
    if (!set.empty()) {
      throw std::invalid_argument("kmcds: node out of range");
    }
    return out;
  }
  const auto in = membership_flags(g, set);
  // Coverage is component-local by construction (neighborhoods never
  // cross components), so one global sweep covers every component —
  // including memberless ones, whose every node is under-covered.
  const auto [uncovered, observed] =
      first_under_covered(graph::FrozenGraph(g), in, params.m);
  if (uncovered != graph::kNoNode) {
    out.ok = false;
    out.defect = KmDefect::kUnderCovered;
    out.witness = uncovered;
    out.observed = observed;
    return out;
  }
  // Connectivity per topology component, then the k=2 leg per component.
  const auto [comp, num_comps] = graph::connected_components(g);
  std::vector<std::vector<NodeId>> by_comp(num_comps);
  for (const NodeId v : set) by_comp[comp[v]].push_back(v);
  for (auto& members : by_comp) {
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    const auto [labels, fragments] = graph::subset_components(g, members);
    if (fragments > 1) {
      out.ok = false;
      out.defect = KmDefect::kDisconnected;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (labels[i] == 0 && out.witness == graph::kNoNode) {
          out.witness = members[i];
        }
        if (labels[i] == 1 && out.witness2 == graph::kNoNode) {
          out.witness2 = members[i];
        }
      }
      return out;
    }
    if (params.k == 2) {
      KmCheck cut = cut_vertex_check(g, members, in);
      if (!cut.ok) {
        cut.required = params.m;
        return cut;
      }
    }
  }
  return out;
}

}  // namespace mcds::core
