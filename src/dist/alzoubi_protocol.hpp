#pragma once

#include "dist/mis_election.hpp"
#include "dist/runtime.hpp"

/// \file alzoubi_protocol.hpp
/// Distributed CDS in the style of Alzoubi–Wan–Frieder [1]: no leader,
/// no BFS tree. Phase 1 elects the id-rank MIS locally; phase 2 has
/// every dominator probe its 3-hop neighborhood, and on hearing a
/// smaller-id dominator it sends a JOIN back along the recorded relay
/// path, turning the (at most two) relays into connectors. The paper
/// cites [1] as trading CDS size (a large constant ratio) for linear
/// time and messages.

namespace mcds::dist {

/// Result of the [1]-style distributed construction.
struct AlzoubiResult {
  MisElectionResult mis;           ///< id-rank dominators
  std::vector<NodeId> connectors;  ///< relays recruited by JOINs
  std::vector<NodeId> cds;         ///< dominators ∪ connectors, ascending
  RunStats mis_stats;
  RunStats connect_stats;
  RunStats total;
  bool complete = true;  ///< the MIS phase completed on all live nodes
};

/// Runs the protocol on \p g under \p cfg; both phases share one fault
/// timeline starting at \p round_offset. complete mirrors the MIS
/// phase; validity of the assembled cds under faults is the caller's
/// check (core::check_cds on the survivor graph). Precondition: g
/// connected with >= 1 node (std::invalid_argument otherwise, under any
/// plan).
[[nodiscard]] AlzoubiResult distributed_alzoubi_cds(
    const Graph& g, const RunConfig& cfg = {}, std::size_t round_offset = 0);

}  // namespace mcds::dist
