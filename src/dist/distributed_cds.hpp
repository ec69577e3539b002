#pragma once

#include "dist/bfs_tree.hpp"
#include "dist/connector_selection.hpp"
#include "dist/leader_election.hpp"
#include "dist/mis_election.hpp"

/// \file distributed_cds.hpp
/// End-to-end distributed WAF construction: leader election -> BFS tree
/// -> rank-based MIS election -> connector selection, with per-phase
/// message/round accounting. This is the algorithm whose approximation
/// ratio Section III bounds by 7⅓.

namespace mcds::dist {

/// Combined result of the four-phase distributed construction.
struct DistributedCdsResult {
  NodeId leader = 0;
  BfsTreeResult tree;
  MisElectionResult mis;
  ConnectorResult connectors;
  std::vector<NodeId> cds;  ///< final CDS, ascending node id

  RunStats leader_stats;
  RunStats total;  ///< all phases combined
  bool complete = true;  ///< every phase completed on all live nodes
};

/// Runs the full distributed construction on \p g under \p cfg. The
/// four phases run consecutively on one fault timeline starting at \p
/// round_offset (each phase's runtime picks up where the previous one
/// stopped), and complete ANDs the per-phase flags. Under a trivial plan
/// a disconnected topology throws std::invalid_argument (from the leader
/// election); under a faulty plan the assembled cds must be validated by
/// the caller. For a single node the CDS is that node and no messages
/// are exchanged. Precondition: >= 1 node.
[[nodiscard]] DistributedCdsResult distributed_waf_cds(
    const Graph& g, const RunConfig& cfg = {}, std::size_t round_offset = 0);

}  // namespace mcds::dist
