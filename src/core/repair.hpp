#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file repair.hpp
/// Local CDS maintenance: when the topology changes (node failures,
/// mobility), repair the previous backbone instead of rebuilding it.
/// Repair first restores domination (adding best-coverage neighbors of
/// uncovered nodes), then restores connectivity by draining the phase-2
/// ConnectorEngine seeded with the surviving set (max-gain connectors,
/// ties to the smallest id); if the engine stalls, one
/// graph::shortest_path_augment call bridges the remaining fragments
/// along shortest paths. The repaired set is always a valid CDS of the
/// new topology; the point is that it usually differs from the old
/// backbone in only a few nodes (low churn), which the maintenance bench
/// quantifies against full rebuild.

namespace mcds::core {

using graph::Graph;
using graph::NodeId;

/// Outcome of a repair.
struct RepairResult {
  std::vector<NodeId> cds;  ///< valid CDS of the new topology, ascending
  std::size_t kept = 0;     ///< old backbone nodes still in the CDS
  std::size_t added = 0;    ///< nodes newly recruited
  std::size_t dropped = 0;  ///< old backbone nodes discarded
};

/// Repairs \p old_cds against the (changed) topology \p g. Entries of
/// old_cds that are out of range are treated as failed nodes and
/// dropped. Preconditions: g connected with >= 1 node.
[[nodiscard]] RepairResult repair_cds(const Graph& g,
                                      const std::vector<NodeId>& old_cds);

/// Connectivity-only repair: reglues the fragments of \p old_cds without
/// re-checking domination — the right tool when a validity check already
/// pinned the defect to a split backbone (core::check_cds reporting
/// kDisconnected). Same pruning of out-of-range entries as repair_cds;
/// the result is a valid CDS iff the pruned input was still dominating.
/// Preconditions: g connected with >= 1 node.
[[nodiscard]] RepairResult reconnect_cds(const Graph& g,
                                         const std::vector<NodeId>& old_cds);

/// repair_cds lifted to possibly-disconnected topologies (a partitioned
/// or crash-fragmented survivor graph): every connected component of
/// \p g is repaired independently against the members of \p old_cds
/// that fall in it, and the union is returned — a valid CDS of each
/// component (the "CDS forest" check_cds_components validates). The
/// kept/added/dropped counters aggregate across components. On a
/// connected graph this is exactly repair_cds. Preconditions: g with
/// >= 1 node.
[[nodiscard]] RepairResult repair_cds_components(
    const Graph& g, const std::vector<NodeId>& old_cds);

/// reconnect_cds lifted the same way: each component's members are
/// reglued within their component only (the cut itself is not bridged —
/// it cannot be). The result is a valid CDS forest iff the pruned input
/// dominated every component.
[[nodiscard]] RepairResult reconnect_cds_components(
    const Graph& g, const std::vector<NodeId>& old_cds);

}  // namespace mcds::core
