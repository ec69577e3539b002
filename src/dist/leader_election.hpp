#pragma once

#include "dist/runtime.hpp"

/// \file leader_election.hpp
/// Minimum-id leader election by flooding: every node repeatedly
/// forwards the smallest id it has heard of; after (diameter + 1) quiet
/// rounds of no change the flood dies out and all nodes agree on the
/// minimum id. Under a trivial plan the topology must be connected.

namespace mcds::dist {

/// Result of leader election.
struct LeaderResult {
  NodeId leader = 0;  ///< the elected (minimum-id) node
  RunStats stats;
  bool complete = true;  ///< all live nodes agree on the leader
};

/// Runs min-id flooding on \p g under \p cfg, with \p round_offset
/// placing it on the plan's global timeline. When the live nodes end
/// without agreeing, a trivial plan (the ideal model) throws
/// std::invalid_argument: the topology is disconnected. A faulty plan
/// (drops, crashes, partitions) sets complete = false instead; leader is
/// then the view of the smallest-id live node. Precondition: >= 1 node.
[[nodiscard]] LeaderResult elect_leader(const Graph& g,
                                        const RunConfig& cfg = {},
                                        std::size_t round_offset = 0);

}  // namespace mcds::dist
