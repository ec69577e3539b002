#include "udg/grid_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "udg/cell_grid.hpp"

namespace mcds::udg {

using geom::Vec2;
using graph::EdgeDelta;
using graph::Graph;

namespace {

/// Packs a cell's coordinates, truncated to 32 bits each, into one key.
/// Cells 2^32 apart share a key; that only adds candidates, which the
/// exact distance test rejects.
[[nodiscard]] std::uint64_t cell_key(std::int64_t cx,
                                     std::int64_t cy) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

[[nodiscard]] std::pair<NodeId, NodeId> canonical(NodeId a, NodeId b) noexcept {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

GridIndex::GridIndex(double radius) : radius_(radius), r2_(radius * radius) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("GridIndex: radius must be positive");
  }
}

GridIndex::GridIndex(std::span<const Vec2> points, double radius)
    : GridIndex(radius) {
  pos_.reserve(points.size());
  alive_.reserve(points.size());
  cells_.reserve(points.size());
  for (const Vec2 p : points) {
    const auto id = static_cast<NodeId>(pos_.size());
    pos_.push_back(p);
    alive_.push_back(1);
    cell_insert(cell_of(p), id);
  }
  alive_count_ = points.size();
}

std::uint64_t GridIndex::cell_of(Vec2 p) const noexcept {
  const Cell c = grid_cell(p, radius_);
  return cell_key(c.x, c.y);
}

void GridIndex::cell_insert(std::uint64_t key, NodeId v) {
  auto& cell = cells_[key];
  cell.insert(std::lower_bound(cell.begin(), cell.end(), v), v);
}

void GridIndex::cell_erase(std::uint64_t key, NodeId v) {
  const auto it = cells_.find(key);
  if (it == cells_.end()) {
    throw std::logic_error("GridIndex: cell missing on erase");
  }
  auto& cell = it->second;
  const auto pos = std::lower_bound(cell.begin(), cell.end(), v);
  if (pos == cell.end() || *pos != v) {
    throw std::logic_error("GridIndex: node missing from its cell");
  }
  cell.erase(pos);
  if (cell.empty()) cells_.erase(it);
}

void GridIndex::check_alive(NodeId v, bool want_alive, const char* what) const {
  if (v >= pos_.size()) {
    throw std::invalid_argument(std::string("GridIndex::") + what + ": node " +
                                std::to_string(v) + " out of range");
  }
  if ((alive_[v] != 0) != want_alive) {
    throw std::invalid_argument(std::string("GridIndex::") + what + ": node " +
                                std::to_string(v) +
                                (want_alive ? " is dead" : " is alive"));
  }
}

void GridIndex::alive_in_range(Vec2 p, NodeId exclude,
                               std::vector<NodeId>& out) const {
  out.clear();
  const Cell c = grid_cell(p, radius_);
  for (std::int64_t dy = -1; dy <= 1; ++dy) {
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      const auto it = cells_.find(cell_key(c.x + dx, c.y + dy));
      if (it == cells_.end()) continue;
      for (const NodeId j : it->second) {
        if (j == exclude) continue;
        if (geom::dist2(p, pos_[j]) <= r2_) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

void GridIndex::alive_neighbors(NodeId v, std::vector<NodeId>& out) const {
  check_alive(v, true, "alive_neighbors");
  alive_in_range(pos_[v], v, out);
}

std::vector<NodeId> GridIndex::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_count_);
  for (NodeId v = 0; v < pos_.size(); ++v) {
    if (alive_[v]) out.push_back(v);
  }
  return out;
}

NodeId GridIndex::insert(Vec2 p, EdgeDelta& delta) {
  const auto id = static_cast<NodeId>(pos_.size());
  std::vector<NodeId> nbrs;
  alive_in_range(p, id, nbrs);
  pos_.push_back(p);
  alive_.push_back(1);
  ++alive_count_;
  cell_insert(cell_of(p), id);
  // The new id is the largest, so (x, id) pairs are already canonical
  // and lexicographically sorted by x.
  for (const NodeId x : nbrs) delta.added.emplace_back(x, id);
  return id;
}

void GridIndex::erase(NodeId v, EdgeDelta& delta) {
  check_alive(v, true, "erase");
  std::vector<NodeId> nbrs;
  alive_in_range(pos_[v], v, nbrs);
  cell_erase(cell_of(pos_[v]), v);
  alive_[v] = 0;
  --alive_count_;
  const std::size_t first = delta.removed.size();
  for (const NodeId x : nbrs) delta.removed.push_back(canonical(v, x));
  std::sort(delta.removed.begin() + static_cast<long>(first),
            delta.removed.end());
}

void GridIndex::revive(NodeId v, Vec2 p, EdgeDelta& delta) {
  check_alive(v, false, "revive");
  pos_[v] = p;
  alive_[v] = 1;
  ++alive_count_;
  cell_insert(cell_of(p), v);
  std::vector<NodeId> nbrs;
  alive_in_range(p, v, nbrs);
  const std::size_t first = delta.added.size();
  for (const NodeId x : nbrs) delta.added.push_back(canonical(v, x));
  std::sort(delta.added.begin() + static_cast<long>(first), delta.added.end());
}

void GridIndex::move(NodeId v, Vec2 p, EdgeDelta& delta) {
  check_alive(v, true, "move");
  std::vector<NodeId> before;
  alive_in_range(pos_[v], v, before);
  const std::uint64_t old_key = cell_of(pos_[v]);
  const std::uint64_t new_key = cell_of(p);
  if (old_key != new_key) {
    cell_erase(old_key, v);
    cell_insert(new_key, v);
  }
  pos_[v] = p;
  std::vector<NodeId> after;
  alive_in_range(p, v, after);

  std::vector<NodeId> gained;
  std::vector<NodeId> lost;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(gained));
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(lost));
  const std::size_t first_add = delta.added.size();
  const std::size_t first_rem = delta.removed.size();
  for (const NodeId x : gained) delta.added.push_back(canonical(v, x));
  for (const NodeId x : lost) delta.removed.push_back(canonical(v, x));
  std::sort(delta.added.begin() + static_cast<long>(first_add),
            delta.added.end());
  std::sort(delta.removed.begin() + static_cast<long>(first_rem),
            delta.removed.end());
}

Graph GridIndex::build_graph() const {
  return grid_udg(pos_, radius_, alive_, nullptr);
}

}  // namespace mcds::udg
