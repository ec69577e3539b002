#pragma once

#include <vector>

#include "graph/graph.hpp"

/// \file steiner.hpp
/// Shortest-path Steiner augmentation: the graph-generic primitive
/// behind several connector phases — given seed nodes, add interior
/// nodes of shortest paths until the seeds induce one component.

namespace mcds::graph {

/// Returns nodes (disjoint from \p seeds) whose addition makes
/// G[seeds ∪ result] connected, by repeatedly joining the first seed's
/// component to the nearest other component along a BFS shortest path.
/// The search never leaves the seeds' component of g, so g itself may
/// be disconnected. Preconditions: seeds non-empty and all in one
/// component of g; throws std::invalid_argument otherwise (including
/// when seeds in another component of g are unreachable).
[[nodiscard]] std::vector<NodeId> shortest_path_augment(
    const Graph& g, const std::vector<NodeId>& seeds);

}  // namespace mcds::graph
