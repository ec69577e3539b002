#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace mcds::graph {

Graph::Graph(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges)
    : n_(n), offsets_(n + 1, 0) {
  for (const auto& [u, v] : edges) add_edge(u, v);
  finalize();
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

void Graph::thaw() {
  // Stage into a local so a mid-loop allocation failure leaves the graph
  // exactly as it was (still finalized, CSR intact); only the noexcept
  // moves below commit the transition.
  std::vector<std::vector<NodeId>> staged(n_);
  for (NodeId u = 0; u < n_; ++u) {
    const auto list = std::span<const NodeId>{
        neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    staged[u].assign(list.begin(), list.end());
  }
  build_adj_ = std::move(staged);
  neighbors_.clear();
  finalized_ = false;
}

void Graph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("Graph: self-loops not allowed");
  if (finalized_) thaw();
  auto& fwd = build_adj_[u];
  auto& rev = build_adj_[v];
  // Pre-grow both endpoint lists (geometrically, to keep push_back
  // amortized O(1)) so the two inserts below cannot throw: an edge is
  // recorded in both lists or in neither, never half-way.
  if (fwd.size() == fwd.capacity()) {
    fwd.reserve(fwd.empty() ? 4 : fwd.capacity() * 2);
  }
  if (rev.size() == rev.capacity()) {
    rev.reserve(rev.empty() ? 4 : rev.capacity() * 2);
  }
  fwd.push_back(v);
  rev.push_back(u);
}

void Graph::finalize() {
  if (finalized_) return;
  num_edges_ = 0;
  std::size_t total = 0;
  for (auto& list : build_adj_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    total += list.size();
  }
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Graph::finalize: adjacency exceeds 32-bit CSR");
  }
  offsets_.assign(n_ + 1, 0);
  neighbors_.clear();
  neighbors_.reserve(total);
  for (NodeId u = 0; u < n_; ++u) {
    offsets_[u] = static_cast<std::uint32_t>(neighbors_.size());
    neighbors_.insert(neighbors_.end(), build_adj_[u].begin(),
                      build_adj_[u].end());
  }
  offsets_[n_] = static_cast<std::uint32_t>(neighbors_.size());
  num_edges_ = total / 2;
  build_adj_.clear();
  build_adj_.shrink_to_fit();
  finalized_ = true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (!finalized_) {
    throw std::logic_error("Graph::has_edge requires a finalized graph");
  }
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

FrozenGraph::FrozenGraph(const Graph& g)
    : offsets_(g.offsets_.data()),
      neighbors_(g.neighbors_.data()),
      n_(g.n_) {
  if (!g.finalized()) {
    throw std::logic_error("FrozenGraph: graph must be finalized");
  }
}

bool FrozenGraph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

}  // namespace mcds::graph
