#include "core/validate.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/kmcds.hpp"
#include "graph/subgraph.hpp"
#include "par/thread_pool.hpp"

namespace mcds::core {

namespace {
std::vector<std::uint8_t> membership(const Graph& g,
                                     std::span<const NodeId> set) {
  std::vector<std::uint8_t> in(g.num_nodes(), 0);
  for (const NodeId v : set) {
    if (v >= g.num_nodes()) {
      throw std::invalid_argument("validate: node out of range");
    }
    in[v] = 1;
  }
  return in;
}

/// Smallest node outside the set with fewer than m set neighbors, plus
/// the coverage it has; kNoNode when every outside node is covered.
struct Shortfall {
  NodeId node = graph::kNoNode;
  std::size_t observed = 0;
};

/// The one m-fold coverage sweep. The serial path is the pool==nullptr
/// instantiation of the chunked sweep, so both paths share one scan and
/// one witness rule.
Shortfall first_under_covered(const graph::FrozenGraph& fg,
                              const std::vector<std::uint8_t>& in,
                              std::uint32_t m, par::ThreadPool* pool) {
  const std::size_t n = fg.num_nodes();
  const auto coverage = [&fg, &in, m](NodeId v) {
    std::size_t count = 0;
    for (const NodeId u : fg.neighbors(v)) {
      if (in[u] && ++count >= m) break;
    }
    return count;
  };
  // Chunks are a pure function of n, and the merged witness is the
  // minimum over per-chunk minima, so the answer is identical at any
  // worker count. ~8 chunks per worker keeps every worker busy on skewed
  // degree distributions without drowning in task overhead.
  const std::size_t workers = pool ? pool->size() : 1;
  const std::size_t grain =
      std::max<std::size_t>(256, n / std::max<std::size_t>(workers * 8, 1));
  const std::size_t chunks = n == 0 ? 0 : (n - 1) / grain + 1;
  std::vector<NodeId> chunk_witness(chunks, graph::kNoNode);
  par::parallel_for(
      pool, n, grain,
      [&in, &coverage, &chunk_witness, m](std::size_t begin, std::size_t end,
                                          std::size_t chunk) {
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
          if (!in[v] && coverage(v) < m) {
            chunk_witness[chunk] = v;
            return;  // first failure in this chunk is the chunk minimum
          }
        }
      });
  for (const NodeId w : chunk_witness) {
    if (w != graph::kNoNode) return {w, coverage(w)};
  }
  return {};
}

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

/// Fragment labels of G[members] - members[skip], in member order, with
/// kNoLabel put back at \p skip; plus the fragment count.
std::pair<std::vector<std::uint32_t>, std::size_t> fragments_without(
    const Graph& g, std::span<const NodeId> members, std::size_t skip) {
  const auto at = static_cast<std::ptrdiff_t>(skip);
  std::vector<NodeId> rest(members.begin(), members.end());
  rest.erase(rest.begin() + at);
  auto [labels, count] = graph::subset_components(g, rest);
  labels.insert(labels.begin() + at, kNoLabel);
  return {std::move(labels), count};
}

/// Component labels of G - avoid over all nodes, with kNoLabel put back
/// at \p avoid; plus the component count.
std::pair<std::vector<std::uint32_t>, std::size_t> components_avoiding(
    const Graph& g, NodeId avoid) {
  std::vector<NodeId> rest(g.num_nodes() - 1);
  std::iota(rest.begin(), rest.begin() + avoid, NodeId{0});
  std::iota(rest.begin() + avoid, rest.end(), avoid + 1);
  auto [labels, count] = graph::subset_components(g, rest);
  labels.insert(labels.begin() + avoid, kNoLabel);
  return {std::move(labels), count};
}

/// The avoidability test for a cut member \p v, per fragment: \p v is
/// avoidable iff two member fragments of G[members] - v land in the
/// same component of G - v (the topology could hold them together, the
/// backbone fails to). A global mutual-reachability test is NOT enough:
/// one fragment marooned by the topology must not excuse an avoidable
/// split between two others. Scanning members in order, the first
/// member whose fragment differs from the first one seen in its
/// component of G - v decides: out.source gets that first fragment and
/// out.severed the member. False when every split is topology-forced.
bool avoidable_component(std::span<const NodeId> members,
                         const std::vector<std::uint32_t>& fragment, NodeId v,
                         const std::vector<std::uint32_t>& gcomp,
                         std::size_t num_gcomps, AvoidableCut& out) {
  std::vector<std::uint32_t> first_frag(num_gcomps, kNoLabel);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == v) continue;
    const std::uint32_t c = gcomp[members[i]];
    if (first_frag[c] == kNoLabel) {
      first_frag[c] = fragment[i];
    } else if (first_frag[c] != fragment[i]) {
      out.source = first_frag[c];
      out.severed = members[i];
      return true;
    }
  }
  return false;
}
}  // namespace

SetSplit first_split(const Graph& g, std::span<const NodeId> set,
                     std::span<const std::uint32_t> component,
                     std::size_t num_components) {
  SetSplit out;
  const auto [fragment, fragments] = graph::subset_components(g, set);
  if (fragments < 2) return out;
  // Set indices of each component's first member and of its first member
  // outside that member's fragment.
  std::vector<std::uint32_t> first(num_components, kNoLabel);
  std::vector<std::uint32_t> second(num_components, kNoLabel);
  for (std::uint32_t i = 0; i < set.size(); ++i) {
    const std::uint32_t c = component[i];
    if (first[c] == kNoLabel) {
      first[c] = i;
    } else if (second[c] == kNoLabel && fragment[i] != fragment[first[c]]) {
      second[c] = i;
    }
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    if (second[c] == kNoLabel) continue;
    out.component = c;
    out.first = set[first[c]];
    out.second = set[second[c]];
    return out;
  }
  return out;
}

AvoidableCut find_avoidable_cut(const Graph& g,
                                std::span<const NodeId> members) {
  AvoidableCut out;
  if (members.size() < 3) return out;  // removal leaves <= 1 member
  const auto sub = graph::induced_subgraph(g, members);
  const auto art = articulation_flags(sub.graph);
  for (NodeId i = 0; i < members.size(); ++i) {
    if (!art[i]) continue;
    const NodeId v = members[i];  // sub.mapping preserves ascending order
    auto [fragment, fragments] = fragments_without(g, members, i);
    if (fragments < 2) continue;  // stale flag (cannot happen, be safe)
    const auto [gcomp, num_gcomps] = components_avoiding(g, v);
    if (!avoidable_component(members, fragment, v, gcomp, num_gcomps, out)) {
      continue;  // every split is topology-forced
    }
    out.cut = v;
    out.fragment = std::move(fragment);
    return out;
  }
  return out;
}

namespace {
/// The one CDS and (k,m) verdict: membership, m-fold coverage, the
/// split rule over the topology components (one component unless
/// \p forest), and for k = 2 the cut scan on each component that comes
/// before the first split one. Domination is component-local (closed
/// neighborhoods never cross components), so one global sweep covers a
/// forest too — memberless components included, whose every node is
/// under-covered.
KmCheck backbone_verdict(const Graph& g, std::span<const NodeId> set,
                         KmParams params, bool forest,
                         par::ThreadPool* pool) {
  params.validate();
  KmCheck out;
  out.required = params.m;
  if (g.num_nodes() == 0) {
    if (!set.empty()) {
      throw std::invalid_argument("validate: node out of range");
    }
    return out;
  }
  const auto in = membership(g, set);
  const auto fail = [&out](KmDefect defect, NodeId witness, NodeId witness2) {
    out.ok = false;
    out.defect = defect;
    out.witness = witness;
    out.witness2 = witness2;
    return out;
  };
  if (set.empty() && !forest) {
    return fail(KmDefect::kEmpty, graph::kNoNode, graph::kNoNode);
  }
  const Shortfall shortfall =
      first_under_covered(graph::FrozenGraph(g), in, params.m, pool);
  if (shortfall.node != graph::kNoNode) {
    out.observed = shortfall.observed;
    return fail(KmDefect::kUnderCovered, shortfall.node, graph::kNoNode);
  }

  std::vector<std::uint32_t> component(set.size(), 0);
  std::size_t num_components = 1;
  if (forest) {
    const auto [label, count] = graph::connected_components(g);
    for (std::size_t i = 0; i < set.size(); ++i) component[i] = label[set[i]];
    num_components = count;
  }
  const SetSplit split = first_split(g, set, component, num_components);

  if (params.k == 2) {
    // The cut scan on each component before the first split one, in
    // label order, members ascending.
    std::vector<std::pair<std::uint32_t, NodeId>> by_component;
    by_component.reserve(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      by_component.emplace_back(component[i], set[i]);
    }
    std::sort(by_component.begin(), by_component.end());
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < by_component.size();) {
      const std::uint32_t c = by_component[i].first;
      if (c >= split.component) break;
      members.clear();
      for (; i < by_component.size() && by_component[i].first == c; ++i) {
        members.push_back(by_component[i].second);
      }
      const AvoidableCut cut = find_avoidable_cut(g, members);
      if (cut.cut != graph::kNoNode) {
        return fail(KmDefect::kCutVertex, cut.cut, cut.severed);
      }
    }
  }
  if (split.component != kNoLabel) {
    return fail(KmDefect::kDisconnected, split.first, split.second);
  }
  return out;
}

CdsCheck as_cds_check(const KmCheck& km) {
  CdsCheck out;
  out.ok = km.ok;
  out.witness = km.witness;
  out.witness2 = km.witness2;
  switch (km.defect) {
    case KmDefect::kNone:
      out.defect = CdsDefect::kNone;
      break;
    case KmDefect::kEmpty:
      out.defect = CdsDefect::kEmpty;
      break;
    case KmDefect::kUnderCovered:
      out.defect = CdsDefect::kUndominated;
      break;
    case KmDefect::kDisconnected:
      out.defect = CdsDefect::kDisconnected;
      break;
    case KmDefect::kCutVertex:  // k = 1 never scans for cuts
      throw std::logic_error("validate: cut vertex in a CDS check");
  }
  return out;
}
}  // namespace

bool is_independent_set(const Graph& g, std::span<const NodeId> set) {
  const auto in = membership(g, set);
  const graph::FrozenGraph fg(g);
  for (const NodeId u : set) {
    for (const NodeId v : fg.neighbors(u)) {
      if (in[v]) return false;
    }
  }
  return true;
}

bool is_dominating_set(const Graph& g, std::span<const NodeId> set) {
  return first_under_covered(graph::FrozenGraph(g), membership(g, set), 1,
                             nullptr)
             .node == graph::kNoNode;
}

bool is_dominating_set(const Graph& g, std::span<const NodeId> set,
                       par::ThreadPool& pool) {
  return first_under_covered(graph::FrozenGraph(g), membership(g, set), 1,
                             &pool)
             .node == graph::kNoNode;
}

bool is_maximal_independent_set(const Graph& g, std::span<const NodeId> set) {
  return is_independent_set(g, set) && is_dominating_set(g, set);
}

bool is_cds(const Graph& g, std::span<const NodeId> set) {
  if (g.num_nodes() == 0) return set.empty();
  return check_cds(g, set).ok;
}

bool is_cds(const Graph& g, std::span<const NodeId> set,
            par::ThreadPool& pool) {
  if (g.num_nodes() == 0) return set.empty();
  return check_cds(g, set, pool).ok;
}

std::string CdsCheck::describe() const {
  switch (defect) {
    case CdsDefect::kNone:
      return "valid CDS";
    case CdsDefect::kEmpty:
      return "empty set on a non-empty graph";
    case CdsDefect::kUndominated:
      return "node " + std::to_string(witness) +
             " has no CDS member in its closed neighborhood";
    case CdsDefect::kDisconnected:
      return "backbone is disconnected: members " + std::to_string(witness) +
             " and " + std::to_string(witness2) +
             " lie in different components of G[set]";
  }
  return "unknown defect";
}

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

CdsCheck check_cds(const Graph& g, std::span<const NodeId> set) {
  return as_cds_check(backbone_verdict(g, set, {1, 1}, false, nullptr));
}

CdsCheck check_cds(const Graph& g, std::span<const NodeId> set,
                   par::ThreadPool& pool) {
  return as_cds_check(backbone_verdict(g, set, {1, 1}, false, &pool));
}

CdsCheck check_cds_components(const Graph& g, std::span<const NodeId> set) {
  return as_cds_check(backbone_verdict(g, set, {1, 1}, true, nullptr));
}

KmCheck check_kmcds(const Graph& g, std::span<const NodeId> set,
                    KmParams params) {
  return backbone_verdict(g, set, params, false, nullptr);
}

KmCheck check_kmcds_components(const Graph& g, std::span<const NodeId> set,
                               KmParams params) {
  // Sorted, so a split names the smallest members of its component.
  std::vector<NodeId> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  return backbone_verdict(g, sorted, params, true, nullptr);
}

bool has_two_hop_separation(const Graph& g, std::span<const NodeId> mis,
                            std::span<const std::size_t> order_rank,
                            NodeId root) {
  const auto in = membership(g, mis);
  const graph::FrozenGraph fg(g);
  if (order_rank.size() != g.num_nodes()) {
    throw std::invalid_argument(
        "has_two_hop_separation: rank size mismatch");
  }
  for (const NodeId u : mis) {
    if (u == root) continue;
    bool ok = false;
    for (const NodeId v : fg.neighbors(u)) {
      for (const NodeId w : fg.neighbors(v)) {
        if (w != u && in[w] && order_rank[w] < order_rank[u]) {
          ok = true;
          break;
        }
      }
      if (ok) break;
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace mcds::core
