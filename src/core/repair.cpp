#include "core/repair.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/connector_engine.hpp"
#include "graph/steiner.hpp"
#include "graph/subgraph.hpp"
#include "graph/traversal.hpp"

namespace mcds::core {

namespace {

// Shared by repair_cds / reconnect_cds: prune dead members (counting
// them) and, if nothing survived, seed from the max-degree node.
void prune_and_seed(const Graph& g, const std::vector<NodeId>& old_cds,
                    std::vector<NodeId>& members, RepairResult& out) {
  const std::size_t n = g.num_nodes();
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
  if (members.empty()) {
    NodeId seed = 0;
    for (NodeId v = 1; v < n; ++v) {
      if (g.degree(v) > g.degree(seed)) seed = v;
    }
    members.push_back(seed);
    ++out.added;
  }
}

// Step 2 of repair — restore connectivity. Drain the phase-2 engine
// (max-gain connectors, ties to the smallest id); when it stalls, no
// single node merges two components, and shortest_path_augment bridges
// all that remain along shortest paths.
void restore_connectivity(const Graph& g, std::vector<NodeId>& members,
                          RepairResult& out) {
  ConnectorEngine engine(g, members);
  while (!engine.done()) {
    const auto step = engine.poll();
    if (!step) {
      const auto bridge = graph::shortest_path_augment(g, members);
      members.insert(members.end(), bridge.begin(), bridge.end());
      out.added += bridge.size();
      return;
    }
    members.push_back(step->node);
    ++out.added;
  }
}

}  // namespace

RepairResult repair_cds(const Graph& g, const std::vector<NodeId>& old_cds) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument("repair_cds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("repair_cds: graph must be connected");
  }

  RepairResult out;
  std::vector<NodeId> members;
  prune_and_seed(g, old_cds, members, out);

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

  // Step 2 — restore connectivity.
  restore_connectivity(g, members, out);

  out.cds = members;
  std::sort(out.cds.begin(), out.cds.end());
  return out;
}

namespace {

// Shared frame of the *_components variants: fast-path a connected
// topology straight to `fix`, otherwise run `fix` on every component's
// induced subgraph and merge the per-component results.
template <typename Fix>
RepairResult per_component(const char* what, const Graph& g,
                           const std::vector<NodeId>& old_cds, Fix fix) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument(std::string(what) + ": empty graph");

  const auto [comp, num_comps] = graph::connected_components(g);
  if (num_comps <= 1) return fix(g, old_cds);

  RepairResult out;
  std::vector<std::vector<NodeId>> nodes_of(num_comps);
  for (NodeId v = 0; v < n; ++v) nodes_of[comp[v]].push_back(v);
  std::vector<std::vector<NodeId>> members_of(num_comps);
  for (const NodeId v : old_cds) {
    if (v >= n) {
      ++out.dropped;  // failed / departed node
      continue;
    }
    members_of[comp[v]].push_back(v);
  }

  for (std::size_t c = 0; c < num_comps; ++c) {
    const auto sub = graph::induced_subgraph(g, nodes_of[c]);
    std::vector<NodeId> to_sub(n, graph::kNoNode);
    for (NodeId i = 0; i < sub.mapping.size(); ++i) to_sub[sub.mapping[i]] = i;
    std::vector<NodeId> members_sub;
    members_sub.reserve(members_of[c].size());
    for (const NodeId v : members_of[c]) members_sub.push_back(to_sub[v]);

    const RepairResult r = fix(sub.graph, members_sub);
    for (const NodeId i : r.cds) out.cds.push_back(sub.mapping[i]);
    out.kept += r.kept;
    out.added += r.added;
    out.dropped += r.dropped;
  }
  std::sort(out.cds.begin(), out.cds.end());
  return out;
}

}  // namespace

RepairResult repair_cds_components(const Graph& g,
                                   const std::vector<NodeId>& old_cds) {
  return per_component("repair_cds_components", g, old_cds, repair_cds);
}

RepairResult reconnect_cds_components(const Graph& g,
                                      const std::vector<NodeId>& old_cds) {
  return per_component("reconnect_cds_components", g, old_cds, reconnect_cds);
}

RepairResult reconnect_cds(const Graph& g,
                           const std::vector<NodeId>& old_cds) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument("reconnect_cds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("reconnect_cds: graph must be connected");
  }

  RepairResult out;
  std::vector<NodeId> members;
  prune_and_seed(g, old_cds, members, out);
  restore_connectivity(g, members, out);

  out.cds = members;
  std::sort(out.cds.begin(), out.cds.end());
  return out;
}

}  // namespace mcds::core
