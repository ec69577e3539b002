#pragma once

#include "dist/mis_election.hpp"
#include "dist/runtime.hpp"

/// \file greedy_protocol.hpp
/// A distributed realization of the paper's Section IV algorithm. The
/// centralized rule — "add the node of globally maximum gain" — is
/// localized: per epoch,
///   1. members of G[I ∪ C] agree on component labels by min-id
///      flooding inside their component (label propagation);
///   2. members announce their final label to neighbors;
///   3. every candidate computes its gain (#distinct adjacent component
///      labels − 1) and broadcasts a bid (gain, id) two hops;
///   4. a candidate joins C iff its bid beats every competing bid it
///      heard from candidates that share one of its components
///      (lexicographic: higher gain, then smaller id).
/// Every epoch at least the globally best bidder survives its own
/// comparison, so the component count strictly decreases (Lemma 9), and
/// simultaneous winners never hurt correctness — they only add
/// connectors, which is the price of locality that the bench measures.

namespace mcds::dist {

/// Result of the distributed greedy construction.
struct DistGreedyResult {
  MisElectionResult mis;           ///< rank-elected dominators
  std::vector<NodeId> connectors;  ///< all epoch winners
  std::vector<NodeId> cds;         ///< dominators ∪ connectors, ascending
  std::size_t epochs = 0;          ///< greedy epochs executed
  RunStats total;                  ///< all phases, all epochs
  bool complete = true;  ///< every phase completed on all live nodes
};

/// Runs the protocol on \p g under \p cfg: leaderless rank MIS (by BFS
/// level from the min-id node, to mirror the centralized phase 1)
/// followed by the localized greedy epochs. All phases (leader, BFS,
/// MIS, every epoch's label + bid protocols) share one fault timeline
/// starting at \p round_offset, and termination is always bounded by
/// the epoch cap. Under a trivial plan a disconnected topology throws
/// std::invalid_argument, and an epoch without a winner contradicts
/// Lemma 9 and throws std::logic_error. Under a faulty plan such an
/// epoch (possible once bids are lost) ends the construction with
/// complete = false. Precondition: >= 1 node.
[[nodiscard]] DistGreedyResult distributed_greedy_cds(
    const Graph& g, const RunConfig& cfg = {}, std::size_t round_offset = 0);

}  // namespace mcds::dist
