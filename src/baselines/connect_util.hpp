#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file connect_util.hpp
/// Shortest-path interconnection of a dominating set. Unlike the
/// max-gain greedy of Section IV (which relies on the 2-hop separation
/// of the BFS first-fit MIS), this works for *any* seed set in a
/// connected graph: it repeatedly joins the component of the first seed
/// to the nearest other component along a shortest path.

namespace mcds::baselines {

using graph::Graph;
using graph::NodeId;

/// The union seeds ∪ graph::shortest_path_augment(g, seeds), ascending
/// node id. Preconditions: g connected and seeds non-empty.
[[nodiscard]] std::vector<NodeId> connected_closure(
    const Graph& g, const std::vector<NodeId>& seeds);

}  // namespace mcds::baselines
