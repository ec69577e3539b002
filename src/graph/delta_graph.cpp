#include "graph/delta_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mcds::graph {

namespace {

/// Inserts \p x into the sorted vector \p v; returns false if present.
bool sorted_insert(std::vector<NodeId>& v, NodeId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

/// Erases \p x from the sorted vector \p v; returns false if absent.
bool sorted_erase(std::vector<NodeId>& v, NodeId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

}  // namespace

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
  touched_.assign(n_, 0);
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

DeltaGraph::Overlay& DeltaGraph::overlay_for(NodeId u) {
  touched_[u] = 1;
  return overlay_[u];
}

NodeId DeltaGraph::add_node() {
  const auto id = static_cast<NodeId>(n_);
  ++n_;
  touched_.push_back(0);
  return id;
}

int DeltaGraph::apply_half(NodeId u, NodeId v, bool add) {
  Overlay& ov = overlay_for(u);
  if (add) {
    // Re-adding a removed base edge cancels the removal; otherwise the
    // edge is genuinely new and goes to the added list.
    if (base_has(u, v)) {
      if (!sorted_erase(ov.removed, v)) {
        throw std::invalid_argument("DeltaGraph: edge already exists");
      }
      return -1;
    }
    if (!sorted_insert(ov.added, v)) {
      throw std::invalid_argument("DeltaGraph: edge already exists");
    }
    return 1;
  }
  // Removing an overlay-added edge cancels the addition; removing a base
  // edge records a tombstone.
  if (sorted_erase(ov.added, v)) return -1;
  if (!base_has(u, v) || !sorted_insert(ov.removed, v)) {
    throw std::invalid_argument("DeltaGraph: edge does not exist");
  }
  return 1;
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
  if (!touched_[u]) return base_has(u, v);
  const Overlay& ov = overlay_.find(u)->second;
  if (std::binary_search(ov.added.begin(), ov.added.end(), v)) return true;
  if (!base_has(u, v)) return false;
  return !std::binary_search(ov.removed.begin(), ov.removed.end(), v);
}

std::size_t DeltaGraph::degree(NodeId u) const {
  check_node(u);
  std::size_t deg = u < base_nodes_ ? base_.degree(u) : 0;
  if (touched_[u]) {
    const Overlay& ov = overlay_.find(u)->second;
    deg += ov.added.size();
    deg -= ov.removed.size();
  }
  return deg;
}

std::vector<NodeId> DeltaGraph::neighbors_copy(NodeId u) const {
  std::vector<NodeId> out;
  out.reserve(degree(u));
  for_each_neighbor(u, [&](NodeId v) { out.push_back(v); });
  return out;
}

bool DeltaGraph::compaction_due() const noexcept {
  const auto base_entries = static_cast<double>(base_.flat_neighbors().size());
  const auto threshold = static_cast<std::size_t>(
      compact_fraction_ * base_entries);
  return overlay_edits_ >= std::max(compact_min_edits_, threshold);
}

Graph DeltaGraph::materialize() const {
  // for_each_neighbor yields each row ascending: the CSR rows as is.
  std::vector<std::uint32_t> offsets(n_ + 1, 0);
  std::vector<NodeId> neighbors;
  neighbors.reserve(2 * num_edges_);
  for (NodeId u = 0; u < n_; ++u) {
    for_each_neighbor(u, [&](NodeId v) { neighbors.push_back(v); });
    offsets[u + 1] = static_cast<std::uint32_t>(neighbors.size());
  }
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

void DeltaGraph::compact() {
  base_ = materialize();
  base_nodes_ = n_;
  overlay_.clear();
  std::fill(touched_.begin(), touched_.end(), std::uint8_t{0});
  overlay_edits_ = 0;
  ++compactions_;
}

}  // namespace mcds::graph
