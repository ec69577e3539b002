#include "baselines/connect_util.hpp"

#include "graph/steiner.hpp"

namespace mcds::baselines {

std::vector<NodeId> connected_closure(const Graph& g,
                                      const std::vector<NodeId>& seeds) {
  const auto connectors = graph::shortest_path_augment(g, seeds);
  std::vector<bool> in(g.num_nodes(), false);
  for (const NodeId v : seeds) in[v] = true;
  for (const NodeId v : connectors) in[v] = true;
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

}  // namespace mcds::baselines
