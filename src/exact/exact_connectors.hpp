#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/small_graph.hpp"

/// \file exact_connectors.hpp
/// Exact phase 2: given the dominator set I (a maximal independent
/// set), find a minimum connector set C ⊆ V \ I such that G[I ∪ C] is
/// connected. This is the Steiner-connectivity subproblem both Section
/// III (tree parents) and Section IV (max-gain greedy) approximate; the
/// exact solution lets the ablation bench measure how much either
/// phase-2 rule leaves on the table for a *fixed* phase 1.

namespace mcds::exact {

// Bring both mask widths' popcount/lowest_bit overloads into scope
// (fundamental mask types have no associated namespace for ADL).
using graph::lowest_bit;
using graph::popcount;

namespace detail {

template <class SG>
struct ConnectorSolver {
  using M = typename SG::mask_type;

  const SG& g;
  M dominators;
  std::vector<graph::NodeId> candidates;  ///< V \ I, by initial gain
  int max_degree = 1;
  int k = 0;          ///< current size budget (iterative deepening)
  M found{0};
  bool has_found = false;

  // Depth-first over candidate subsets in candidate-list order (each
  // subset visited once). `idx` = next candidate position, `chosen` =
  // connectors picked so far.
  void dfs(std::size_t idx, M chosen, int size) {
    if (has_found) return;
    const std::size_t q = g.count_components(dominators | chosen);
    if (q == 1) {
      found = chosen;
      has_found = true;
      return;
    }
    // Each extra node reduces the component count by at most its degree
    // (<= max_degree).
    const int lb =
        static_cast<int>((q - 1 + static_cast<std::size_t>(max_degree) - 1) /
                         static_cast<std::size_t>(max_degree));
    if (size + lb > k) return;
    if (idx >= candidates.size()) return;
    // Even taking every remaining candidate must connect the set.
    M remaining{0};
    for (std::size_t i = idx; i < candidates.size(); ++i) {
      remaining |= SG::bit(candidates[i]);
    }
    if (!g.is_connected(dominators | chosen | remaining)) return;

    for (std::size_t i = idx; i < candidates.size(); ++i) {
      if (has_found) return;
      dfs(i + 1, chosen | SG::bit(candidates[i]), size + 1);
    }
  }
};

}  // namespace detail

/// A minimum connector set for \p dominators (bitmask) in \p g, as a
/// bitmask disjoint from dominators. Preconditions: g connected,
/// dominators non-empty and dominating (the usual phase-1 output).
/// Iterative deepening over |C| with connectivity pruning.
template <class SG>
[[nodiscard]] typename SG::mask_type minimum_connectors(
    const SG& g, typename SG::mask_type dominators) {
  using M = typename SG::mask_type;
  dominators &= g.all();
  if (dominators == M{0}) {
    throw std::invalid_argument("minimum_connectors: empty dominator set");
  }
  if (!g.is_connected(g.all())) {
    throw std::invalid_argument(
        "minimum_connectors: graph must be connected");
  }
  if (!g.is_dominating(dominators)) {
    throw std::invalid_argument(
        "minimum_connectors: dominators must dominate (phase-1 output)");
  }
  if (g.is_connected(dominators)) return M{0};

  detail::ConnectorSolver<SG> solver{g, dominators, {}};
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    solver.max_degree = std::max(solver.max_degree,
                                 popcount(g.neighbors(v)));
    if ((dominators & SG::bit(v)) == M{0}) {
      solver.candidates.push_back(v);
    }
  }
  // Order candidates by how many dominator-components they touch
  // (descending) so the first solutions appear early.
  std::vector<std::size_t> gain(g.num_nodes(), 0);
  const std::size_t q0 = g.count_components(dominators);
  for (const graph::NodeId v : solver.candidates) {
    gain[v] = q0 - g.count_components(dominators | SG::bit(v));
  }
  std::stable_sort(
      solver.candidates.begin(), solver.candidates.end(),
      [&gain](graph::NodeId a, graph::NodeId b) { return gain[a] > gain[b]; });

  const int start = static_cast<int>(
      (q0 - 1 + static_cast<std::size_t>(solver.max_degree) - 1) /
      static_cast<std::size_t>(solver.max_degree));
  for (int k = std::max(1, start);
       k <= static_cast<int>(solver.candidates.size()); ++k) {
    solver.k = k;
    solver.has_found = false;
    solver.dfs(0, M{0}, 0);
    if (solver.has_found) return solver.found;
  }
  throw std::logic_error(
      "minimum_connectors: no connector set found in a connected graph");
}

/// popcount(minimum_connectors(...)).
template <class SG>
[[nodiscard]] std::size_t minimum_connector_count(
    const SG& g, typename SG::mask_type dominators) {
  return static_cast<std::size_t>(
      popcount(minimum_connectors(g, dominators)));
}

}  // namespace mcds::exact
