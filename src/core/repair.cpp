#include "core/repair.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/connector_engine.hpp"
#include "graph/steiner.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"

namespace mcds::core {

namespace {

// The connectivity step's fallback. At a stall no single node merges
// two fragments of one component; every component whose members are
// still split gets one shortest_path_augment over its members, in
// member order, which stays inside that component.
void bridge_split_components(const Graph& g,
                             const std::vector<std::uint32_t>& comp,
                             std::size_t num_comps,
                             std::vector<NodeId>& members, RepairResult& out) {
  const auto [fragment, num_fragments] =
      graph::subset_components(g, members);
  std::vector<bool> seen(num_fragments, false);
  std::vector<std::size_t> fragments_in(num_comps, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (seen[fragment[i]]) continue;
    seen[fragment[i]] = true;
    ++fragments_in[comp[members[i]]];
  }
  std::vector<std::vector<NodeId>> split(num_comps);
  for (const NodeId v : members) {
    if (fragments_in[comp[v]] > 1) split[comp[v]].push_back(v);
  }
  for (const std::vector<NodeId>& seeds : split) {
    if (seeds.empty()) continue;
    const auto bridge = graph::shortest_path_augment(g, seeds);
    members.insert(members.end(), bridge.begin(), bridge.end());
    out.added += bridge.size();
  }
}

}  // namespace

RepairResult repair_cds(const Graph& g, const std::vector<NodeId>& old_cds) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument("repair_cds: empty graph");
  const auto [comp, num_comps] = graph::connected_components(g);

  // Prune dead members (counting them) and duplicates.
  RepairResult out;
  std::vector<NodeId> members;
  std::vector<bool> in_set(n, false);
  for (const NodeId v : old_cds) {
    if (v >= n) {
      ++out.dropped;  // failed / departed node
      continue;
    }
    if (!in_set[v]) {
      in_set[v] = true;
      members.push_back(v);
      ++out.kept;
    }
  }

  // Seed every component that kept no member from its max-degree node.
  std::vector<bool> held(num_comps, false);
  for (const NodeId v : members) held[comp[v]] = true;
  std::vector<NodeId> seed(num_comps, graph::kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    NodeId& s = seed[comp[v]];
    if (!held[comp[v]] && (s == graph::kNoNode || g.degree(v) > g.degree(s))) {
      s = v;
    }
  }
  for (const NodeId s : seed) {
    if (s == graph::kNoNode) continue;
    members.push_back(s);
    ++out.added;
  }

  // Step 1 — restore domination. For each uncovered node pick the
  // member of its closed neighborhood covering the most uncovered
  // nodes (a local decision, as a real deployment would make).
  std::vector<bool> dominated(n, false);
  const auto mark = [&](NodeId v) {
    dominated[v] = true;
    for (const NodeId w : g.neighbors(v)) dominated[w] = true;
  };
  for (const NodeId v : members) mark(v);
  for (NodeId v = 0; v < n; ++v) {
    if (dominated[v]) continue;
    NodeId best = v;
    std::size_t best_cover = 0;
    const auto coverage = [&](NodeId w) {
      std::size_t c = dominated[w] ? 0 : 1;
      for (const NodeId x : g.neighbors(w)) {
        if (!dominated[x]) ++c;
      }
      return c;
    };
    best_cover = coverage(v);
    for (const NodeId w : g.neighbors(v)) {
      const std::size_t c = coverage(w);
      if (c > best_cover || (c == best_cover && w < best)) {
        best = w;
        best_cover = c;
      }
    }
    members.push_back(best);
    ++out.added;
    mark(best);
  }

  // Step 2 — restore connectivity. Every component holds a member, so
  // one member component per topology component is the end state.
  // Drain the phase-2 engine (max-gain connectors, ties to the smallest
  // id); components never interact, so each one is connected in its own
  // order.
  ConnectorEngine engine(g, members);
  while (engine.components() > num_comps) {
    const auto step = engine.poll();
    if (!step) {
      bridge_split_components(g, comp, num_comps, members, out);
      break;
    }
    members.push_back(step->node);
    ++out.added;
  }

  out.cds = members;
  std::sort(out.cds.begin(), out.cds.end());
  return out;
}

}  // namespace mcds::core
