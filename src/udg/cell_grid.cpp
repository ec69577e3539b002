#include "udg/cell_grid.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"

namespace mcds::udg {

using geom::Vec2;
using graph::NodeId;

namespace {

/// Row-major cell order: by y, then by x.
[[nodiscard]] bool before(Cell a, Cell b) noexcept {
  return a.y != b.y ? a.y < b.y : a.x < b.x;
}

}  // namespace

graph::Graph grid_udg(std::span<const Vec2> points, double radius,
                      std::span<const std::uint8_t> alive,
                      par::ThreadPool* pool) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("build_udg: radius must be positive");
  }
  const std::size_t n = points.size();

  struct Entry {
    Cell cell;
    NodeId id;
  };
  std::vector<Entry> entries;
  entries.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    if (alive.empty() || alive[i] != 0) {
      entries.push_back({grid_cell(points[i], radius), i});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return before(a.cell, b.cell);
            });

  // Lay the cell-ordered points out flat and give each occupied cell the
  // three position ranges, one per row y-1, y, y+1, that hold its 3×3
  // neighbourhood. Cells are visited in row-major order, so the bounds
  // searched for only ever move forward.
  const std::size_t m = entries.size();
  using Reach = std::array<std::pair<std::uint32_t, std::uint32_t>, 3>;
  std::vector<Reach> reach;
  std::vector<std::uint32_t> cell_at(m);
  std::vector<NodeId> ids(m);
  std::vector<Vec2> pts(m);
  std::array<std::size_t, 3> lo{};
  std::array<std::size_t, 3> hi{};
  for (std::size_t k = 0; k < m; ++k) {
    const Cell c = entries[k].cell;
    if (k == 0 || before(entries[k - 1].cell, c)) {
      Reach r;
      for (std::size_t d = 0; d < 3; ++d) {
        const std::int64_t y = c.y + static_cast<std::int64_t>(d) - 1;
        const Cell first{c.x - 1, y};
        const Cell last{c.x + 1, y};
        while (lo[d] < m && before(entries[lo[d]].cell, first)) ++lo[d];
        hi[d] = std::max(hi[d], lo[d]);
        while (hi[d] < m && !before(last, entries[hi[d]].cell)) ++hi[d];
        r[d] = {static_cast<std::uint32_t>(lo[d]),
                static_cast<std::uint32_t>(hi[d])};
      }
      reach.push_back(r);
    }
    cell_at[k] = static_cast<std::uint32_t>(reach.size() - 1);
    ids[k] = entries[k].id;
    pts[k] = points[entries[k].id];
  }
  entries = {};

  const double r2 = radius * radius;
  // Calls visit(t) for every position t != k whose point is in range of
  // position k's point.
  const auto sweep = [&](std::size_t k, auto&& visit) {
    const Vec2 p = pts[k];
    for (const auto& [begin, end] : reach[cell_at[k]]) {
      for (std::uint32_t t = begin; t < end; ++t) {
        if (t != k && geom::dist2(p, pts[t]) <= r2) visit(t);
      }
    }
  };
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t grain = std::max<std::size_t>(64, m / (workers * 8));

  // Count pass: node u's degree lands in offsets[u + 1], and the prefix
  // sum below turns degrees into row starts.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  par::parallel_for(pool, m, grain,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t k = begin; k < end; ++k) {
                        std::uint32_t degree = 0;
                        sweep(k, [&degree](std::uint32_t) { ++degree; });
                        offsets[ids[k] + 1] = degree;
                      }
                    });
  std::uint64_t total = 0;
  for (std::size_t u = 1; u <= n; ++u) {
    total += offsets[u];
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("build_udg: adjacency exceeds 32-bit CSR");
    }
    offsets[u] = static_cast<std::uint32_t>(total);
  }

  // Fill pass: each row is written and sorted by the one task that owns
  // its node, so the result does not depend on the pool.
  std::vector<NodeId> neighbors(total);
  par::parallel_for(pool, m, grain,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t k = begin; k < end; ++k) {
                        NodeId* const row = neighbors.data() + offsets[ids[k]];
                        NodeId* out = row;
                        sweep(k, [&](std::uint32_t t) { *out++ = ids[t]; });
                        std::sort(row, out);
                      }
                    });
  return graph::Graph::from_csr(std::move(offsets), std::move(neighbors));
}

}  // namespace mcds::udg
