#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file repair.hpp
/// Local CDS maintenance: when the topology changes (node failures,
/// mobility, a partition), repair the previous backbone instead of
/// rebuilding it. Repair works on any topology, connected or not, in one
/// pass over it: it seeds every component the old backbone no longer
/// reaches, restores domination (adding best-coverage neighbors of
/// uncovered nodes), then restores connectivity by draining the phase-2
/// ConnectorEngine seeded with the surviving set (max-gain connectors,
/// ties to the smallest id); if the engine stalls, each component whose
/// members are still split gets one graph::shortest_path_augment call
/// that bridges its fragments along shortest paths. The result is a CDS
/// of every component; the point is that it usually differs from the old
/// backbone in only a few nodes (low churn), which the maintenance bench
/// quantifies against full rebuild.

namespace mcds::core {

using graph::Graph;
using graph::NodeId;

/// Outcome of a repair.
struct RepairResult {
  std::vector<NodeId> cds;  ///< CDS of every component of g, ascending
  std::size_t kept = 0;     ///< old backbone nodes still in the CDS
  std::size_t added = 0;    ///< nodes newly recruited
  std::size_t dropped = 0;  ///< old backbone nodes discarded
};

/// One replica's epoch-stamped claim about the backbone: which nodes it
/// speaks for (its island) and which of them it currently keeps in the
/// CDS. dist::SelfHealingCds::reconcile() merges these per node: among
/// all views whose island contains the node, the one with the highest
/// epoch decides its membership (ties resolved towards the later view in
/// the argument order, matching "last writer wins" of equal clocks).
struct BackboneView {
  std::vector<NodeId> island;  ///< nodes this view speaks for, ascending
  std::vector<NodeId> cds;     ///< backbone members among them, ascending
  std::size_t epoch = 0;
};

/// Repairs \p old_cds against the (changed) topology \p g, which may be
/// disconnected: the result is a CDS of each connected component (the
/// forest check_cds_components certifies). Entries of old_cds that are
/// out of range are treated as failed nodes and dropped; duplicates
/// count once. A component that kept no member is seeded with its
/// max-degree node (ties to the smallest id). Components never
/// interact, so each one's result is the one a repair of that component
/// alone would return. On a dominating input only the connectivity step
/// adds nodes. Precondition: g with >= 1 node; throws
/// std::invalid_argument otherwise.
[[nodiscard]] RepairResult repair_cds(const Graph& g,
                                      const std::vector<NodeId>& old_cds);

}  // namespace mcds::core
