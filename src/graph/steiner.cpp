#include "graph/steiner.hpp"

#include <cstdint>
#include <stdexcept>

#include "graph/traversal.hpp"
#include "graph/union_find.hpp"

namespace mcds::graph {

std::vector<NodeId> shortest_path_augment(
    const Graph& g, const std::vector<NodeId>& seeds) {
  if (seeds.empty()) {
    throw std::invalid_argument("shortest_path_augment: empty seeds");
  }
  const std::size_t n = g.num_nodes();
  // Member components live in one union-find across merges: admitting a
  // node unites it with every member neighbor, so each merge costs its
  // search, not a relabelling of G[members].
  UnionFind uf(n);
  std::vector<std::uint8_t> member(n, 0);
  std::vector<NodeId> members;
  members.reserve(seeds.size());
  std::size_t q = 0;  // member components
  const auto admit = [&](NodeId w) {
    member[w] = 1;
    members.push_back(w);
    ++q;
    for (const NodeId v : g.neighbors(w)) {
      if (member[v] && uf.unite(w, v)) --q;
    }
  };
  for (const NodeId v : seeds) {
    if (v >= n) {
      throw std::invalid_argument("shortest_path_augment: bad seed");
    }
    if (member[v]) {
      throw std::invalid_argument("shortest_path_augment: duplicate seed");
    }
    admit(v);
  }

  // Per-call scratch: BFS marks stamped per merge, parents valid at the
  // non-members marked this merge, one queue.
  std::vector<std::uint32_t> visited(n, 0);
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<NodeId> queue;
  std::vector<NodeId> connectors;
  for (std::uint32_t stamp = 1; q > 1; ++stamp) {
    // Multi-source BFS from the first seed's component, in member order,
    // until another component is hit.
    const std::uint32_t home = uf.find(members.front());
    queue.clear();
    for (const NodeId v : members) {
      if (uf.find(v) == home) {
        visited[v] = stamp;
        queue.push_back(v);
      }
    }
    NodeId hit = kNoNode;
    for (std::size_t head = 0; head < queue.size() && hit == kNoNode;
         ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g.neighbors(u)) {
        if (visited[v] == stamp) continue;
        visited[v] = stamp;
        parent[v] = u;
        // Every member of the home component is marked already.
        if (member[v]) {
          hit = v;
          break;
        }
        queue.push_back(v);
      }
    }
    if (hit == kNoNode) {
      throw std::invalid_argument(
          "shortest_path_augment: graph is disconnected");
    }
    // Add the interior nodes of the found path as connectors.
    for (NodeId v = parent[hit]; v != kNoNode && !member[v];
         v = parent[v]) {
      admit(v);
      connectors.push_back(v);
    }
  }
  return connectors;
}

}  // namespace mcds::graph
