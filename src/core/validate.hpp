#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/traversal.hpp"

/// \file validate.hpp
/// Correctness predicates for dominating-set constructions. Every
/// algorithm in this library is checked against these in tests, and the
/// bench harness re-checks each produced CDS before reporting it.
///
/// Every backbone verdict — check_cds (serial and pooled),
/// check_cds_components, is_cds, and kmcds.hpp's check_kmcds and
/// check_kmcds_components — comes from one function in validate.cpp:
/// one membership pass, one m-fold coverage sweep (chunked over an
/// optional pool), the split rule first_split, and for k = 2 the
/// avoidable-cut scan find_avoidable_cut, which the k = 2 builder calls
/// too. Witness order: a split names its first member in set order and
/// the first member outside that member's fragment; check_kmcds_components
/// sorts the set first, so it names the smallest such members.

namespace mcds::par {
class ThreadPool;
}  // namespace mcds::par

namespace mcds::core {

using graph::Graph;
using graph::NodeId;

/// True if \p set is an independent set of \p g (no two members
/// adjacent).
[[nodiscard]] bool is_independent_set(const Graph& g,
                                      std::span<const NodeId> set);

/// True if \p set is a *maximal* independent set: independent, and every
/// non-member has a member neighbor (equivalently: independent and
/// dominating).
[[nodiscard]] bool is_maximal_independent_set(const Graph& g,
                                              std::span<const NodeId> set);

/// True if every node of \p g is in \p set or adjacent to a member.
[[nodiscard]] bool is_dominating_set(const Graph& g,
                                     std::span<const NodeId> set);

/// Parallel domination sweep over \p pool. The node range is split into
/// chunks whose boundaries depend only on n and the pool size, and the
/// verdict is an AND-reduction, so the result is identical to the serial
/// overload at every thread count.
[[nodiscard]] bool is_dominating_set(const Graph& g,
                                     std::span<const NodeId> set,
                                     par::ThreadPool& pool);

/// True if \p set is a connected dominating set: dominating, non-empty
/// (for non-empty graphs) and G[set] connected.
[[nodiscard]] bool is_cds(const Graph& g, std::span<const NodeId> set);

/// is_cds with the domination sweep fanned over \p pool (the
/// connectivity BFS stays serial: it is O(|set| + edges-within-set),
/// already tiny next to the full-graph domination scan).
[[nodiscard]] bool is_cds(const Graph& g, std::span<const NodeId> set,
                          par::ThreadPool& pool);

/// Why a set fails the CDS predicate.
enum class CdsDefect {
  kNone,          ///< the set is a valid CDS
  kEmpty,         ///< empty set on a non-empty graph
  kUndominated,   ///< witness = a node with no member in its closed
                  ///< neighborhood
  kDisconnected,  ///< witness/witness2 = members of two different
                  ///< components of G[set]
};

/// Outcome of check_cds: the verdict plus a concrete witness, so a
/// failing chaos assertion can say *which* node is uncovered or *which*
/// backbone fragments drifted apart instead of a bare false.
struct CdsCheck {
  bool ok = true;
  CdsDefect defect = CdsDefect::kNone;
  NodeId witness = graph::kNoNode;   ///< undominated node, or a member of
                                     ///< the first backbone component
  NodeId witness2 = graph::kNoNode;  ///< member of a second component
                                     ///< (kDisconnected only)

  /// Human-readable verdict ("valid CDS", "node 7 is undominated", ...).
  [[nodiscard]] std::string describe() const;
};

/// The witness-reporting version of is_cds. Domination is checked before
/// connectivity, so a set broken in both ways reports the undominated
/// node. Throws std::invalid_argument on out-of-range members.
[[nodiscard]] CdsCheck check_cds(const Graph& g, std::span<const NodeId> set);

/// check_cds with the domination sweep parallelized over \p pool. The
/// witness is the minimum over per-chunk first failures, which equals
/// the serial scan's first failure — same verdict, same witness, at any
/// thread count.
[[nodiscard]] CdsCheck check_cds(const Graph& g, std::span<const NodeId> set,
                                 par::ThreadPool& pool);

/// check_cds relaxed to possibly-disconnected graphs (a partitioned or
/// crash-fragmented survivor topology): ok iff, within every connected
/// component of \p g, the members falling in that component form a CDS
/// of it — a "CDS forest". A component without any member reports its
/// smallest node as kUndominated; members of one topology component
/// split across two backbone fragments report kDisconnected with a
/// witness in each fragment. On a connected graph with a non-empty set
/// this is exactly check_cds; the empty set reports node 0 as
/// kUndominated where check_cds reports kEmpty. Throws
/// std::invalid_argument on out-of-range members.
[[nodiscard]] CdsCheck check_cds_components(const Graph& g,
                                            std::span<const NodeId> set);

/// Label of "no component" in the split rule and the cut scan.
inline constexpr std::uint32_t kNoLabel =
    std::numeric_limits<std::uint32_t>::max();

/// The split rule's answer: the smallest-label topology component whose
/// members fall in two fragments of G[set], with its first member in set
/// order and the first member of that component outside that member's
/// fragment.
struct SetSplit {
  std::uint32_t component = kNoLabel;  ///< kNoLabel: no component splits
  NodeId first = graph::kNoNode;
  NodeId second = graph::kNoNode;
};

/// The split rule: labels G[set] once and compares those labels with
/// \p component — the topology component of each member, in set order,
/// every label below \p num_components — in one pass. All-zero labels
/// ask whether G[set] is connected at all. Throws std::invalid_argument
/// on out-of-range or duplicate members.
[[nodiscard]] SetSplit first_split(const Graph& g, std::span<const NodeId> set,
                                   std::span<const std::uint32_t> component,
                                   std::size_t num_components);

/// The first avoidable cut of G[members]: a cut vertex v of the backbone
/// with two member fragments of G[members] - v inside one component of
/// G - v (the topology could hold them together, the backbone does not).
/// Splits the topology forces are excused: UDG instances routinely have
/// bridge nodes.
struct AvoidableCut {
  NodeId cut = graph::kNoNode;  ///< kNoNode: every cut is excusable
  /// Fragment label of each member in G[members] - cut, in member order
  /// (kNoLabel for the cut itself).
  std::vector<std::uint32_t> fragment;
  /// Fragment of the smallest member of the shared component of G - cut.
  std::uint32_t source = kNoLabel;
  /// The first member of the shared component outside that fragment.
  NodeId severed = graph::kNoNode;
};

/// The cut scan behind both the k = 2 builder and its validator, so the
/// two cannot apply different rules: the smallest avoidable cut of
/// G[members]. Members must be ascending.
[[nodiscard]] AvoidableCut find_avoidable_cut(const Graph& g,
                                              std::span<const NodeId> members);

/// The 2-hop separation property of the BFS first-fit MIS ([10], used by
/// Lemma 9): every MIS node other than the BFS root has another MIS node
/// at hop distance exactly 2 that was selected earlier. \p order_rank
/// maps node -> its rank in the selection order (any strictly increasing
/// numbering works).
[[nodiscard]] bool has_two_hop_separation(
    const Graph& g, std::span<const NodeId> mis,
    std::span<const std::size_t> order_rank, NodeId root);

}  // namespace mcds::core
