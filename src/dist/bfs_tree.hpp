#pragma once

#include "dist/runtime.hpp"
#include "graph/traversal.hpp"

/// \file bfs_tree.hpp
/// Distributed BFS spanning-tree construction from a root: the root
/// announces level 0; a node adopting level L+1 picks the smallest-id
/// offering neighbor as its parent and announces its own level once.

namespace mcds::dist {

/// Result of distributed BFS-tree construction.
struct BfsTreeResult {
  NodeId root = 0;
  std::vector<NodeId> parent;  ///< graph::kNoNode for the root
  std::vector<NodeId> level;   ///< hop distance from the root
  RunStats stats;
  bool complete = true;  ///< every live node adopted a level
};

/// Builds the BFS tree of \p g rooted at \p root under \p cfg, with
/// \p round_offset placing it on the plan's global timeline. A live
/// node left unreached throws std::invalid_argument under a trivial plan
/// (the topology is disconnected); under a faulty plan (lost offers,
/// crashed subtrees) it keeps level == graph::kNoNode and clears
/// complete instead. Under drops the adopted levels form a spanning tree
/// of the reached region but need not be shortest-path. Precondition:
/// root valid.
[[nodiscard]] BfsTreeResult build_bfs_tree(const Graph& g, NodeId root,
                                           const RunConfig& cfg = {},
                                           std::size_t round_offset = 0);

}  // namespace mcds::dist
