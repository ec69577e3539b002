#pragma once

#include "dist/runtime.hpp"

/// \file connector_selection.hpp
/// Distributed phase 2 of the WAF construction (Section III): the
/// leader's neighbors report how many dominators they cover; the leader
/// elects the best one as s; s announces itself; every dominator not
/// covered by s invites its BFS-tree parent, which joins as a connector.

namespace mcds::dist {

/// Result of connector selection.
struct ConnectorResult {
  NodeId s = 0;                    ///< the elected neighbor of the leader
  std::vector<NodeId> connectors;  ///< s plus the invited parents
  std::vector<NodeId> cds;         ///< dominators ∪ connectors, ascending
  RunStats stats;
  bool complete = true;  ///< the election of s went through
};

/// Runs connector selection on \p g under \p cfg, with \p round_offset
/// placing it on the plan's global timeline. Inputs come from the
/// earlier phases: \p leader, per-node BFS \p parent, and the \p in_mis
/// flags. The protocol is round-indexed, so under a reliable link its
/// phase thresholds stretch by the link's worst-case delivery bound. A
/// leader that hears no reports throws std::logic_error under a trivial
/// plan; under a faulty plan (all reports lost, or the leader crashed)
/// it fizzles with complete = false. Precondition: g has >= 2 nodes;
/// under a trivial plan g is connected and in_mis is the rank-elected
/// MIS containing the leader.
[[nodiscard]] ConnectorResult select_connectors(
    const Graph& g, NodeId leader, const std::vector<NodeId>& parent,
    const std::vector<bool>& in_mis, const RunConfig& cfg = {},
    std::size_t round_offset = 0);

}  // namespace mcds::dist
