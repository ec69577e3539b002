#include "graph/delta_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mcds::graph {

DeltaGraph::DeltaGraph(Graph base, double compact_fraction,
                       std::size_t compact_min_edits)
    : base_(std::move(base)),
      compact_fraction_(compact_fraction),
      compact_min_edits_(compact_min_edits) {
  if (!(compact_fraction_ > 0.0)) {
    throw std::invalid_argument("DeltaGraph: compact_fraction must be > 0");
  }
  n_ = base_.num_nodes();
  base_nodes_ = n_;
  num_edges_ = base_.num_edges();
  slot_.assign(n_, kUntouched);
}

void DeltaGraph::check_node(NodeId u) const {
  if (u >= n_) {
    throw std::invalid_argument("DeltaGraph: node " + std::to_string(u) +
                                " out of range (n=" + std::to_string(n_) +
                                ")");
  }
}

bool DeltaGraph::base_has(NodeId u, NodeId v) const {
  if (u >= base_nodes_) return false;
  const auto list = base_.neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

NodeId DeltaGraph::add_node() {
  const auto id = static_cast<NodeId>(n_);
  ++n_;
  slot_.push_back(kUntouched);
  return id;
}

int DeltaGraph::apply_half(NodeId u, NodeId v, bool add) {
  if (slot_[u] == kUntouched) {
    const auto row = u < base_nodes_ ? base_.neighbors(u)
                                     : std::span<const NodeId>{};
    slot_[u] = static_cast<std::uint32_t>(rows_.size());
    rows_.emplace_back(row.begin(), row.end());
  }
  std::vector<NodeId>& row = rows_[slot_[u]];
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  const bool present = it != row.end() && *it == v;
  if (add == present) {
    throw std::invalid_argument(add ? "DeltaGraph: edge already exists"
                                    : "DeltaGraph: edge does not exist");
  }
  if (add) {
    row.insert(it, v);
  } else {
    row.erase(it);
  }
  // An edit that restores the base adjacency cancels an earlier one.
  return base_has(u, v) == add ? -1 : 1;
}

void DeltaGraph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) {
    throw std::invalid_argument("DeltaGraph: self-loops not allowed");
  }
  overlay_edits_ = static_cast<std::size_t>(
      static_cast<long>(overlay_edits_) + apply_half(u, v, /*add=*/true) +
      apply_half(v, u, /*add=*/true));
  ++num_edges_;
}

void DeltaGraph::remove_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) {
    throw std::invalid_argument("DeltaGraph: self-loops not allowed");
  }
  overlay_edits_ = static_cast<std::size_t>(
      static_cast<long>(overlay_edits_) + apply_half(u, v, /*add=*/false) +
      apply_half(v, u, /*add=*/false));
  --num_edges_;
}

void DeltaGraph::apply(const EdgeDelta& delta) {
  for (const auto& [u, v] : delta.removed) remove_edge(u, v);
  for (const auto& [u, v] : delta.added) add_edge(u, v);
}

bool DeltaGraph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

bool DeltaGraph::compaction_due() const noexcept {
  const auto base_entries = static_cast<double>(base_.flat_neighbors().size());
  const auto threshold = static_cast<std::size_t>(
      compact_fraction_ * base_entries);
  return overlay_edits_ >= std::max(compact_min_edits_, threshold);
}

Graph DeltaGraph::materialize() const {
  // Every row is ascending: the CSR rows as is.
  std::vector<std::uint32_t> offsets(n_ + 1, 0);
  std::vector<NodeId> flat;
  flat.reserve(2 * num_edges_);
  for (NodeId u = 0; u < n_; ++u) {
    const auto row = neighbors(u);
    flat.insert(flat.end(), row.begin(), row.end());
    offsets[u + 1] = static_cast<std::uint32_t>(flat.size());
  }
  return Graph::from_csr(std::move(offsets), std::move(flat));
}

void DeltaGraph::compact() {
  base_ = materialize();
  base_nodes_ = n_;
  rows_.clear();
  std::fill(slot_.begin(), slot_.end(), kUntouched);
  overlay_edits_ = 0;
  ++compactions_;
}

}  // namespace mcds::graph
