#pragma once

#include "dist/runtime.hpp"

/// \file mis_election.hpp
/// Distributed rank-based MIS election ([10]): ranks are (BFS level,
/// id) lexicographically; a node joins the MIS once every lower-ranked
/// neighbor has announced a decision and none of them joined. This
/// realizes first-fit over a level-monotone order, so the elected MIS
/// has the 2-hop separation property the paper's Lemma 9 relies on.

namespace mcds::dist {

/// Result of MIS election.
struct MisElectionResult {
  std::vector<bool> in_mis;       ///< per-node dominator flag
  std::vector<NodeId> mis;        ///< dominators, ascending id
  RunStats stats;
  bool complete = true;  ///< every live node decided (always true under
                         ///< a trivial plan)
};

/// Runs the election on \p g given the BFS \p level of every node
/// (from build_bfs_tree) under \p cfg, with \p round_offset placing it
/// on the plan's global timeline. Nodes that quiesce undecided (expected
/// under message loss or crashes) clear complete, and in_mis holds only
/// the nodes that decided to join. Under a trivial plan every node
/// decides, so an undecided one throws std::logic_error. The election is
/// confluent: with reliable links and no crashes the result equals the
/// fault-free one.
[[nodiscard]] MisElectionResult elect_mis(const Graph& g,
                                          const std::vector<NodeId>& level,
                                          const RunConfig& cfg = {},
                                          std::size_t round_offset = 0);

}  // namespace mcds::dist
