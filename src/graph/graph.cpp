#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcds::graph {

Graph::Graph(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges)
    : n_(n), offsets_(n + 1, 0) {
  // Count each endpoint's raw degree into end[u + 1]; the prefix sum
  // makes end[u] the start of row u in the raw (unsorted, possibly
  // repeating) adjacency.
  std::vector<std::size_t> end(n + 1, 0);
  for (const auto& [u, v] : edges) {
    check_node(u);
    check_node(v);
    if (u == v) throw std::invalid_argument("Graph: self-loops not allowed");
    ++end[u + 1];
    ++end[v + 1];
  }
  std::partial_sum(end.begin(), end.end(), end.begin());
  // Scatter both directions of every edge; advancing end[u] past each
  // entry leaves it at the end of row u.
  std::vector<NodeId> adj(end[n]);
  for (const auto& [u, v] : edges) {
    adj[end[u]++] = v;
    adj[end[v]++] = u;
  }
  // Sort each row and compact it, repeats dropped, to the front.
  std::size_t kept = 0;
  std::size_t begin = 0;
  for (std::size_t u = 0; u < n; ++u) {
    std::sort(adj.begin() + static_cast<std::ptrdiff_t>(begin),
              adj.begin() + static_cast<std::ptrdiff_t>(end[u]));
    const std::size_t row = kept;
    for (std::size_t k = begin; k < end[u]; ++k) {
      if (kept == row || adj[k] != adj[kept - 1]) adj[kept++] = adj[k];
    }
    offsets_[u + 1] = static_cast<std::uint32_t>(kept);
    begin = end[u];
  }
  if (kept > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Graph: adjacency exceeds 32-bit CSR");
  }
  adj.resize(kept);
  neighbors_ = std::move(adj);
  num_edges_ = kept / 2;
}

Graph Graph::from_csr(std::vector<std::uint32_t> offsets,
                      std::vector<NodeId> neighbors) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != neighbors.size() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument(
        "Graph::from_csr: offsets must rise from 0 to neighbors.size()");
  }
  const std::size_t n = offsets.size() - 1;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const NodeId v = neighbors[k];
      if (v >= n || v == u || (k > offsets[u] && v <= neighbors[k - 1])) {
        throw std::invalid_argument(
            "Graph::from_csr: row " + std::to_string(u) +
            " is not strictly ascending in-range ids without a self-loop");
      }
    }
  }
  Graph g;
  g.n_ = n;
  g.offsets_ = std::move(offsets);
  g.neighbors_ = std::move(neighbors);
  g.num_edges_ = g.neighbors_.size() / 2;
  return g;
}

void Graph::check_node(NodeId u) const {
  if (u >= n_) {
    throw std::invalid_argument("Graph: node " + std::to_string(u) +
                                " out of range (n=" + std::to_string(n_) +
                                ")");
  }
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  const auto list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

bool FrozenGraph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

}  // namespace mcds::graph
