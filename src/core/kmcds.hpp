#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/mis.hpp"
#include "obs/obs.hpp"

/// \file kmcds.hpp
/// The fault-tolerant (k,m)-CDS family, built on the same two-phased
/// shape as the source paper: phase 1 grows an m-fold dominating set
/// (every node outside the set has >= m neighbors inside it), phase 2
/// makes the set k-connected for k in {1, 2}. A (k,m) backbone with
/// m >= 2 stays a dominating set of the survivor graph through any
/// single member crash *by construction* (coverage degrades from m to
/// m-1), and a k=2 backbone stays connected through any single member
/// crash — survive-by-construction, where the plain (1,1) CDS of the
/// paper needs reactive healing after the first dominator loss.
///
/// Construction (deterministic, ties to the smallest node id):
///  * Phase 1 seeds with the BFS first-fit MIS of [10] (coverage 1 and
///    the 2-hop separation that keeps phase 2 stall-free), then greedily
///    adds the node reducing the total coverage deficit the most,
///    maintained with incremental cover counts and a lazy max-gain
///    queue — exact because deficits only shrink as the set grows.
///  * Phase 2 k=1 runs the pluggable-policy connector engine
///    (connector_engine.hpp) over the phase-1 set.
///  * Phase 2 k=2 then eliminates articulation points of the induced
///    backbone: while some member v splits G[D] into two fragments that
///    still share a component of G - v, the cheapest patch path around
///    v (0/1-weighted BFS: members free, recruits cost 1) is added.
///    Splits the topology itself forces — the fragments land in
///    different components of G - v — are tolerated, exactly mirroring
///    what check_kmcds excuses.
///
/// The weighted variant kmcds_weighted ranks phase-1 candidates by
/// deficit-reduction per unit weight and runs phase 2 on the
/// NodeWeightedGainPolicy engine — the node-weighted (1,m)-CDS of the
/// minimum-weight m-fold literature (arXiv:1510.05886).
///
/// kmcds.cpp holds the builders only. check_kmcds and
/// check_kmcds_components, declared here, are defined in validate.cpp
/// as thin entry points over the one verdict function behind check_cds
/// too (see validate.hpp), and the k = 2 builder calls that file's cut
/// scan, find_avoidable_cut, so builder and validator apply one rule.
/// Witness order: check_kmcds names a split's witnesses in set order,
/// check_kmcds_components by smallest member.

namespace mcds::core {

/// The (k, m) of a backbone: k-connectivity of the induced backbone
/// (k in {1, 2}) and m-fold domination of every outside node.
struct KmParams {
  std::uint32_t k = 1;
  std::uint32_t m = 1;

  /// Throws std::invalid_argument unless k in {1, 2} and m >= 1.
  void validate() const;
};

/// Output of the (k,m)-CDS construction.
struct KmCdsResult {
  KmParams params;
  std::vector<NodeId> dominators;  ///< phase-1 m-fold dominators, ascending
  std::vector<NodeId> connectors;  ///< k=1 connectivity picks, in pick order
  std::vector<NodeId> augmenters;  ///< k=2 augmentation recruits, in order
  std::vector<NodeId> backbone;    ///< the union, ascending node id
  double weight = 0.0;  ///< total backbone weight (node count if unweighted)
};

/// Phase 1 alone: the minimal m-fold dominating superset of the BFS
/// first-fit MIS grown by the deficit greedy. Requires a connected
/// graph (throws std::invalid_argument otherwise). For m = 1 this is
/// exactly bfs_first_fit_mis(g, root).mis. Nodes whose degree is below
/// m join the set themselves (no neighborhood can ever cover them).
/// Returned ascending. \p obs counts work under "kmcds.*".
[[nodiscard]] std::vector<NodeId> m_fold_dominators(const Graph& g,
                                                    std::uint32_t m,
                                                    NodeId root = 0,
                                                    const obs::Obs& obs = {});

/// Weighted phase 1: greedy by deficit-reduction / weight. \p weight
/// must have one positive entry per node.
[[nodiscard]] std::vector<NodeId> m_fold_dominators_weighted(
    const Graph& g, std::uint32_t m, std::span<const double> weight,
    NodeId root = 0, const obs::Obs& obs = {});

/// The full two-phased (k,m) construction. Requires a connected graph.
/// Shipped variants exercised by tests and the survivability harness:
/// (1,2), (2,1) and (2,2); (1,1) degenerates to the paper's greedy CDS
/// dominator/connector split over the same engine.
[[nodiscard]] KmCdsResult kmcds(const Graph& g, KmParams params,
                                NodeId root = 0, const obs::Obs& obs = {});

/// The node-weighted (1,m) variant: weighted phase 1 plus the
/// NodeWeightedGainPolicy phase 2. \p weight must have one positive
/// entry per node; result.weight sums the backbone's weights.
[[nodiscard]] KmCdsResult kmcds_weighted(const Graph& g, std::uint32_t m,
                                         std::span<const double> weight,
                                         NodeId root = 0,
                                         const obs::Obs& obs = {});

/// Why a set fails the (k,m)-CDS predicate.
enum class KmDefect {
  kNone,          ///< the set is a valid (k,m)-CDS
  kEmpty,         ///< empty set on a non-empty graph
  kUnderCovered,  ///< witness = a node outside the set with fewer than m
                  ///< set neighbors (observed/required say how short)
  kDisconnected,  ///< witness/witness2 = members of two different
                  ///< components of G[set]
  kCutVertex,     ///< k=2 only: witness = a member whose removal splits
                  ///< two backbone fragments that still share a
                  ///< component of G - witness; witness2 = a member cut
                  ///< off from the fragment holding the smallest member
};

/// Outcome of check_kmcds: the verdict plus a concrete witness, in the
/// check_cds style — a failing chaos assertion names *which* node is
/// under-covered, *which* member is an avoidable cut vertex, or which
/// fragments drifted apart, instead of a bare false.
struct KmCheck {
  bool ok = true;
  KmDefect defect = KmDefect::kNone;
  NodeId witness = graph::kNoNode;
  NodeId witness2 = graph::kNoNode;
  std::size_t observed = 0;  ///< coverage seen at the witness
                             ///< (kUnderCovered only)
  std::size_t required = 0;  ///< the m it fell short of

  /// Human-readable verdict ("valid (2,2)-CDS", "node 7 has 1 of 2
  /// required dominators", ...).
  [[nodiscard]] std::string describe() const;
};

/// The witness-reporting (k,m)-CDS predicate on a connected topology.
/// Checks, in order: non-emptiness, m-fold coverage of every outside
/// node, connectivity of G[set], and for k=2 the absence of avoidable
/// cut vertices. A member v is an *excusable* cut vertex iff no two
/// fragments of G[set] - v share a component of G - v — the topology
/// itself, not the construction, forbids biconnecting around v (UDG
/// instances routinely have bridge nodes). Throws std::invalid_argument
/// on out-of-range members or invalid params.
[[nodiscard]] KmCheck check_kmcds(const Graph& g, std::span<const NodeId> set,
                                  KmParams params);

/// check_kmcds relaxed to possibly-disconnected graphs (a partitioned
/// or crash-fragmented survivor topology): ok iff, within every
/// connected component of \p g, the members falling in that component
/// form a (k,m) backbone of it — the (k,m) analogue of
/// check_cds_components' CDS forest. A component without any member
/// reports its smallest node as kUnderCovered with observed = 0. On a
/// connected graph with a non-empty set this is exactly check_kmcds;
/// the empty set reports node 0 as kUnderCovered where check_kmcds
/// reports kEmpty.
[[nodiscard]] KmCheck check_kmcds_components(const Graph& g,
                                             std::span<const NodeId> set,
                                             KmParams params);

}  // namespace mcds::core
