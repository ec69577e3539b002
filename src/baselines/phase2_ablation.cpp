#include "baselines/phase2_ablation.hpp"

#include <limits>
#include <stdexcept>

#include "core/greedy_connect.hpp"
#include "core/waf.hpp"
#include "graph/steiner.hpp"
#include "graph/subgraph.hpp"
#include "sim/rng.hpp"

namespace mcds::baselines {

const char* to_string(ConnectorPolicy policy) noexcept {
  switch (policy) {
    case ConnectorPolicy::kTreeParent: return "tree-parent [10]";
    case ConnectorPolicy::kMaxGain: return "max-gain (Sec IV)";
    case ConnectorPolicy::kFirstPositiveGain: return "first-positive";
    case ConnectorPolicy::kRandomPositiveGain: return "random-positive";
    case ConnectorPolicy::kShortestPath: return "shortest-path [8]";
  }
  return "unknown";
}

namespace {

// Gain-driven selection shared by the positive-gain policies: keeps
// adding a connector with gain >= 1 until one component remains,
// picking among positive-gain nodes first by id, or uniformly at
// random.
std::vector<NodeId> gain_policy_connectors(const Graph& g,
                                           const std::vector<NodeId>& mis,
                                           bool random, std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  const graph::FrozenGraph fg(g);
  std::vector<bool> in_set(n, false);
  std::vector<NodeId> members = mis;
  for (const NodeId u : mis) in_set[u] = true;
  std::vector<NodeId> connectors;
  sim::Rng rng(seed);

  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> comp(n), mark(n);
  while (true) {
    const auto [labels, q] = graph::subset_components(g, members);
    if (q <= 1) break;
    std::fill(comp.begin(), comp.end(), kUnset);
    std::fill(mark.begin(), mark.end(), kUnset);
    for (std::size_t i = 0; i < members.size(); ++i) {
      comp[members[i]] = labels[i];
    }
    std::vector<NodeId> positive;
    for (NodeId w = 0; w < n; ++w) {
      if (in_set[w]) continue;
      std::size_t distinct = 0;
      for (const NodeId v : fg.neighbors(w)) {
        const std::uint32_t c = comp[v];
        if (c != kUnset && mark[c] != w) {
          mark[c] = w;
          ++distinct;
        }
      }
      if (distinct >= 2) positive.push_back(w);
    }
    if (positive.empty()) {
      throw std::logic_error(
          "gain policy: no positive-gain node although q > 1");
    }
    const NodeId chosen = random
                              ? positive[rng.uniform_int(positive.size())]
                              : positive.front();  // smallest id
    connectors.push_back(chosen);
    members.push_back(chosen);
    in_set[chosen] = true;
  }
  return connectors;
}

std::vector<NodeId> merge(const Graph& g, const std::vector<bool>& in_mis,
                          const std::vector<NodeId>& connectors) {
  std::vector<bool> in = in_mis;
  for (const NodeId c : connectors) in[c] = true;
  std::vector<NodeId> cds;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) cds.push_back(v);
  }
  return cds;
}

}  // namespace

Phase2Result cds_with_policy(const Graph& g, ConnectorPolicy policy,
                             NodeId root, std::uint64_t seed) {
  Phase2Result out;
  switch (policy) {
    case ConnectorPolicy::kTreeParent: {
      auto waf = core::waf_cds(g, root);
      out.phase1 = std::move(waf.phase1);
      out.connectors = std::move(waf.connectors);
      out.cds = std::move(waf.cds);
      return out;
    }
    case ConnectorPolicy::kMaxGain: {
      auto greedy = core::greedy_cds(g, root);
      out.phase1 = std::move(greedy.phase1);
      out.connectors = std::move(greedy.connectors);
      out.cds = std::move(greedy.cds);
      return out;
    }
    case ConnectorPolicy::kFirstPositiveGain:
    case ConnectorPolicy::kRandomPositiveGain: {
      out.phase1 = core::bfs_first_fit_mis(g, root);
      out.connectors = gain_policy_connectors(
          g, out.phase1.mis, policy == ConnectorPolicy::kRandomPositiveGain,
          seed);
      out.cds = merge(g, out.phase1.in_mis, out.connectors);
      return out;
    }
    case ConnectorPolicy::kShortestPath: {
      out.phase1 = core::bfs_first_fit_mis(g, root);
      out.connectors = graph::shortest_path_augment(g, out.phase1.mis);
      out.cds = merge(g, out.phase1.in_mis, out.connectors);
      return out;
    }
  }
  throw std::invalid_argument("cds_with_policy: unknown policy");
}

}  // namespace mcds::baselines
