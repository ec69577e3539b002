#include "graph/subgraph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mcds::graph {

namespace {
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

// position[v] = index of v within `subset`, kUnset if absent.
std::vector<std::uint32_t> position_map(const Graph& g,
                                        std::span<const NodeId> subset) {
  std::vector<std::uint32_t> pos(g.num_nodes(), kUnset);
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    const NodeId v = subset[i];
    if (v >= g.num_nodes()) {
      throw std::invalid_argument("subset node out of range");
    }
    if (pos[v] != kUnset) {
      throw std::invalid_argument("subset contains duplicate node");
    }
    pos[v] = i;
  }
  return pos;
}
}  // namespace

InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const NodeId> nodes) {
  const auto pos = position_map(g, nodes);
  const FrozenGraph fg(g);
  std::vector<std::uint32_t> offsets(nodes.size() + 1, 0);
  std::vector<NodeId> neighbors;
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const std::size_t row = neighbors.size();
    for (const NodeId v : fg.neighbors(nodes[i])) {
      if (pos[v] != kUnset) neighbors.push_back(pos[v]);
    }
    // `nodes` may come in any order, so a row's new ids need not ascend.
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(row),
              neighbors.end());
    offsets[i + 1] = static_cast<std::uint32_t>(neighbors.size());
  }
  return {Graph::from_csr(std::move(offsets), std::move(neighbors)),
          {nodes.begin(), nodes.end()}};
}

std::pair<std::vector<std::uint32_t>, std::size_t> subset_components(
    const Graph& g, std::span<const NodeId> subset) {
  const auto pos = position_map(g, subset);
  const FrozenGraph fg(g);
  std::vector<std::uint32_t> label(subset.size(), kUnset);
  std::size_t count = 0;
  std::vector<std::uint32_t> stack;
  for (std::uint32_t i = 0; i < subset.size(); ++i) {
    if (label[i] != kUnset) continue;
    const auto lbl = static_cast<std::uint32_t>(count++);
    label[i] = lbl;
    stack.push_back(i);
    while (!stack.empty()) {
      const std::uint32_t cur = stack.back();
      stack.pop_back();
      for (const NodeId v : fg.neighbors(subset[cur])) {
        const std::uint32_t j = pos[v];
        if (j != kUnset && label[j] == kUnset) {
          label[j] = lbl;
          stack.push_back(j);
        }
      }
    }
  }
  return {std::move(label), count};
}

std::size_t count_components_subset(const Graph& g,
                                    std::span<const NodeId> subset) {
  return subset_components(g, subset).second;
}

bool is_connected_subset(const Graph& g, std::span<const NodeId> subset) {
  if (subset.size() <= 1) return true;
  return count_components_subset(g, subset) == 1;
}

}  // namespace mcds::graph
