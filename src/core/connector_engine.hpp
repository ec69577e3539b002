#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/greedy_connect.hpp"
#include "graph/union_find.hpp"
#include "obs/obs.hpp"

/// \file connector_engine.hpp
/// Incremental engine behind phase 2 of the Section IV algorithm. The
/// reference implementation re-labels the components of G[I ∪ C] and
/// rescans every node's neighborhood on every round — O(rounds·(n+m)).
/// This engine maintains the components in a union-find that only merges
/// when a connector is added, and keeps candidates in a lazy max-gain
/// priority queue, giving near-linear total work on UDG workloads.
///
/// Exactness of the lazy queue rests on two facts about the gain
/// gain(w) = (#distinct components of G[members] adjacent to w) − 1:
///  1. For a *fixed* member set, component merges never increase any
///     candidate's gain (two adjacent components collapsing into one can
///     only lower the distinct count), so stale queue entries are upper
///     bounds and can be re-scored on pop.
///  2. Adding a member c can raise gains, but only for neighbors of c
///     (a node not adjacent to c sees only merges). The engine therefore
///     re-scores and re-pushes every non-member neighbor of each added
///     connector, restoring the upper-bound invariant.
/// With the heap ordered by (score desc, node id asc), the first popped
/// entry whose stored score matches its re-computed score is exactly the
/// node the reference picks: maximum score, ties to the smallest id. The
/// differential test suite pins trace-for-trace equality.
///
/// The engine reads adjacency through the CSR view graph::FrozenGraph
/// and is a template over its *selection policy*, which owns the
/// scoring function (how a merge count ranks against other candidates —
/// unit gain, or gain per unit of node weight) and the feasibility
/// predicate (when the phase is done). UnitGainPolicy reproduces the
/// paper's plain-CDS selection bit for bit; NodeWeightedGainPolicy ranks
/// by gain/weight for the node-weighted (1,m)-CDS family (kmcds.hpp).
/// ConnectorEngine is the unit-gain instantiation every plain-CDS
/// production caller uses.
///
/// Callers: greedy_connectors and the (k,m) builders drain select_next(),
/// which relies on Lemma 9 (a BFS-ordered phase-1 MIS never stalls).
/// The two repair paths drain poll() instead: core::repair_cds falls
/// back to graph::shortest_path_augment, once per still-split topology
/// component, when the engine stalls, and
/// LocalBackbone::rebuild_connectors, whose maintained MIS is only
/// arbitrary-maximal, patches each stall with bridge_gap() and drains
/// again. Both run one engine over a possibly disconnected topology.
///
/// bridge_gap() answers from an exact, lazily validated index of *gap
/// edges*: adjacent non-members x, y whose member neighbors lie in
/// different components, keyed (m, x, y) with m the smallest member
/// neighbor of x. At a stall no non-member touches two components, so
/// the least-keyed gap edge is the first member–x–y–member path of a
/// member-ascending scan. Members only join and components only merge,
/// so an edge found invalid stays invalid; an edge can turn valid, or
/// its key drop, only beside a node admitted since the previous stall.
/// Cost: nothing before the first stall (select_next() callers never
/// pay), one O(n + m) pass at it, then at each later stall O(Σ deg²)
/// over the nodes admitted since the one before, plus one heap
/// operation per entry pushed or popped.
///
/// Policy requirements (duck-typed; both shipped policies model it):
///   using Score = <totally ordered, equality-comparable value type>;
///   Score score(NodeId w, std::size_t distinct) const;
///       priority of adding w given it currently touches `distinct`
///       member components (only called with distinct >= 2). Must be
///       non-increasing in member-set growth for a fixed w — i.e.
///       monotone in `distinct` — or the lazy queue loses exactness.
///   bool done(std::size_t q) const;
///       feasibility target: true once q components are acceptable.

namespace mcds::core {

/// The paper's plain-CDS policy: score = gain = distinct − 1, run until
/// one component remains. Selection order is bit-identical to the
/// pre-policy engine (same Score type, same comparisons).
struct UnitGainPolicy {
  using Score = std::uint32_t;
  [[nodiscard]] Score score(NodeId /*w*/, std::size_t distinct) const noexcept {
    return static_cast<Score>(distinct - 1);
  }
  [[nodiscard]] bool done(std::size_t q) const noexcept { return q <= 1; }
};

/// Node-weighted selection for the weighted (k,m)-CDS family: score =
/// gain / weight(w), so a cheap node that merges two components beats an
/// expensive one that merges three when the price ratio says so. Weights
/// must be positive; ties (equal ratios) still resolve to the smallest
/// node id via the engine's ordering.
struct NodeWeightedGainPolicy {
  std::span<const double> weight;  ///< weight[v] > 0, one per node
  using Score = double;
  [[nodiscard]] Score score(NodeId w, std::size_t distinct) const {
    return static_cast<double>(distinct - 1) / weight[w];
  }
  [[nodiscard]] bool done(std::size_t q) const noexcept { return q <= 1; }
};

/// Incremental max-score connector selection over a growing member set.
/// \tparam Policy the scoring/feasibility policy (see file comment).
template <class Policy = UnitGainPolicy>
class BasicConnectorEngine {
 public:
  /// Seeds the engine with \p members (phase-1 dominators; any duplicate
  /// or out-of-range node throws std::invalid_argument). Member-member
  /// edges are united immediately, so the seed need not be independent.
  /// \p obs (null sinks by default) counts union-find finds/merges and
  /// lazy-queue pops/stale re-scores under "connector_engine.*".
  BasicConnectorEngine(graph::FrozenGraph g, std::span<const NodeId> members,
                       Policy policy = {}, const obs::Obs& obs = {})
      : g_(g),
        policy_(std::move(policy)),
        uf_(g.num_nodes()),
        member_(g.num_nodes(), false),
        mark_(g.num_nodes(), 0),
        c_uf_finds_(obs.counter("connector_engine.uf_finds")),
        c_uf_merges_(obs.counter("connector_engine.uf_merges")),
        c_pops_(obs.counter("connector_engine.pops")),
        c_stale_(obs.counter("connector_engine.stale_rescores")),
        c_retired_(obs.counter("connector_engine.retired")) {
    const std::size_t n = g_.num_nodes();
    // Admitting the seed one by one unites member-member edges. For an
    // independent seed (the intended use) nothing merges; for arbitrary
    // seeds it reproduces the component structure subset_components
    // would report.
    for (const NodeId u : members) {
      if (u >= n) throw std::invalid_argument("ConnectorEngine: bad node");
      if (member_[u]) {
        throw std::invalid_argument("ConnectorEngine: duplicate member");
      }
      admit(u);
    }
    if (policy_.done(q_)) return;
    // Seed the lazy queue: per Lemma 9 a positive-gain node always exists
    // while q > 1, and any node that becomes positive later is a neighbor
    // of an added connector, which select_next() refreshes.
    for (NodeId w = 0; w < n; ++w) {
      if (!member_[w]) push_if_candidate(w);
    }
  }

  /// Number of connected components of G[members] right now.
  [[nodiscard]] std::size_t components() const noexcept { return q_; }

  /// True once the policy's feasibility target holds (plain CDS: one
  /// component remains — phase 2 is finished).
  [[nodiscard]] bool done() const noexcept { return policy_.done(q_); }

  /// Selects the maximum-score connector (ties toward the smaller node
  /// id), adds it to the member set and merges the components it touches.
  /// Throws std::logic_error if no positive-gain node exists although
  /// the feasibility target is unmet (the seed was not a maximal
  /// independent set of a connected graph — cf. Lemma 9).
  GreedyStep select_next() {
    if (auto step = poll()) return *step;
    throw std::logic_error(
        "ConnectorEngine: no positive-gain node although q > 1 "
        "(input MIS is not maximal or graph is disconnected)");
  }

  /// select_next() without the Lemma-9 precondition: std::nullopt when no
  /// positive-gain node remains although q > 1. A BFS-ordered phase-1 MIS
  /// never stalls, but an *arbitrary* maximal independent set can leave
  /// member components exactly 3 hops apart, which no single node can
  /// merge (bridge_gap() patches such a gap in place).
  std::optional<GreedyStep> poll() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (c_pops_) c_pops_->add();
      if (member_[top.node]) continue;  // joined since this entry was pushed
      const std::size_t distinct = distinct_adjacent(top.node);
      if (distinct < 2) {
        if (c_retired_) c_retired_->add();
        continue;  // gain collapsed to zero: retire the node
      }
      const auto score = policy_.score(top.node, distinct);
      if (score != top.score) {
        heap_.push({score, top.node});  // stale: re-score and keep popping
        if (c_stale_) c_stale_->add();
        continue;
      }
      const auto gain = static_cast<std::uint32_t>(distinct - 1);
      const GreedyStep step{top.node, q_, gain};
      admit(top.node);  // `distinct` components and the node merge into one
      refresh_neighbors(top.node);
      return step;
    }
    return std::nullopt;
  }

  /// The stall patch: once poll() has returned std::nullopt, admits the
  /// non-members x and y of the first member–x–y–member path whose end
  /// members lie in different components, in the order member asc, then
  /// x asc, then y asc, and returns {x, y} (one merge); std::nullopt when
  /// no such path is left. Called before a stall (candidates still queued
  /// and q > 1), it throws std::logic_error.
  ///
  /// At a stall no non-member touches two components, so that path is the
  /// *gap edge* — adjacent non-members x, y whose member neighbors lie in
  /// different components — of least key (m, x, y), m being x's smallest
  /// member neighbor. The engine keeps a lazy min-heap of gap edges. The
  /// first stall builds it in one O(n + m) pass. Because members only
  /// join and components only merge, an edge found invalid (an end
  /// admitted, or both ends in one component) stays invalid, and an edge
  /// can turn valid or get a smaller key only beside a node admitted
  /// since the previous stall. So each later stall re-keys just the
  /// non-member neighbors of those nodes, then pops until an entry
  /// validates. Nothing is allocated before the first stall.
  std::optional<std::array<NodeId, 2>> bridge_gap() {
    if (policy_.done(q_)) return std::nullopt;
    if (!heap_.empty()) {
      throw std::logic_error("ConnectorEngine: bridge_gap before a stall");
    }
    if (first_member_.empty()) {
      index_gap_edges();
    } else {
      rekey_admitted();
    }
    // Keys only shrink, and a shrunk key was re-pushed at this stall or
    // an earlier one, so the first entry that validates has a current key.
    while (!gaps_.empty()) {
      const auto [m, x, y] = gaps_.top();
      gaps_.pop();
      const NodeId my = first_member_[y];
      if (member_[x] || member_[y] || uf_.find(m) == uf_.find(my)) continue;
      admit(x);
      admit(y);
      refresh_neighbors(x);
      refresh_neighbors(y);
      return std::array<NodeId, 2>{x, y};
    }
    return std::nullopt;
  }

 private:
  struct Entry {
    typename Policy::Score score;
    NodeId node;
    friend bool operator<(const Entry& a, const Entry& b) noexcept {
      if (a.score != b.score) return a.score < b.score;  // max-score first
      return a.node > b.node;                            // then smallest id
    }
  };

  /// #distinct member components adjacent to \p w (stamp-marked roots).
  [[nodiscard]] std::size_t distinct_adjacent(NodeId w) {
    ++stamp_;
    std::size_t distinct = 0;
    std::size_t finds = 0;
    for (const NodeId v : g_.neighbors(w)) {
      if (!member_[v]) continue;
      const std::uint32_t root = uf_.find(v);
      ++finds;
      if (mark_[root] != stamp_) {
        mark_[root] = stamp_;
        ++distinct;
      }
    }
    if (c_uf_finds_) c_uf_finds_->add(finds);
    return distinct;
  }

  /// Adds \p w to the member set and merges it with every member
  /// component it touches.
  void admit(NodeId w) {
    member_[w] = true;
    ++q_;
    if (!first_member_.empty()) admitted_.push_back(w);
    for (const NodeId v : g_.neighbors(w)) {
      if (member_[v] && uf_.unite(w, v)) {
        --q_;
        if (c_uf_merges_) c_uf_merges_->add();
      }
    }
  }

  /// Re-scores the non-member neighbors of a fresh member, the only nodes
  /// whose gain its arrival can raise.
  void refresh_neighbors(NodeId w) {
    for (const NodeId v : g_.neighbors(w)) {
      if (!member_[v]) push_if_candidate(v);
    }
  }

  void push_if_candidate(NodeId w) {
    const std::size_t distinct = distinct_adjacent(w);
    if (distinct >= 2) {
      heap_.push({policy_.score(w, distinct), w});
    }
  }

  /// The first stall's O(n + m) pass: every node's smallest member
  /// neighbor, then every gap edge out of every non-member.
  void index_gap_edges() {
    const std::size_t n = g_.num_nodes();
    first_member_.assign(n, kNoMember);
    for (NodeId m = 0; m < n; ++m) {
      if (!member_[m]) continue;
      for (const NodeId v : g_.neighbors(m)) {
        first_member_[v] = std::min(first_member_[v], m);
      }
    }
    for (NodeId x = 0; x < n; ++x) {
      if (!member_[x]) push_gap_edges(x, false);
    }
  }

  /// A later stall: lowers the smallest member neighbor of every
  /// non-member beside a node admitted since the previous stall, then
  /// pushes every gap edge at those non-members, both ways.
  void rekey_admitted() {
    for (const NodeId a : admitted_) {
      for (const NodeId v : g_.neighbors(a)) {
        first_member_[v] = std::min(first_member_[v], a);
      }
    }
    ++stamp_;
    for (const NodeId a : admitted_) {
      for (const NodeId v : g_.neighbors(a)) {
        if (member_[v] || mark_[v] == stamp_) continue;
        mark_[v] = stamp_;
        push_gap_edges(v, true);
      }
    }
    admitted_.clear();
  }

  /// Pushes each gap edge (x, y) at non-member \p x; with \p both, also
  /// (y, x), which turns valid when x gains its first member neighbor.
  void push_gap_edges(NodeId x, bool both) {
    const NodeId mx = first_member_[x];
    if (mx == kNoMember) return;
    const std::uint32_t root = uf_.find(mx);
    for (const NodeId y : g_.neighbors(x)) {
      const NodeId my = first_member_[y];
      if (member_[y] || my == kNoMember || uf_.find(my) == root) continue;
      gaps_.push({mx, x, y});
      if (both) gaps_.push({my, y, x});
    }
  }

  graph::FrozenGraph g_;
  Policy policy_;
  graph::UnionFind uf_;
  std::vector<bool> member_;
  std::priority_queue<Entry> heap_;
  /// Stamps: per root for distinct counts, per node for re-key dedup.
  std::vector<std::uint64_t> mark_;
  std::uint64_t stamp_ = 0;
  std::size_t q_ = 0;  ///< current component count of G[members]
  /// The gap-edge index (bridge_gap()), empty until the first stall:
  /// each node's smallest member neighbor (kNoMember if none), the nodes
  /// admitted since the last stall, and the min-heap of (m, x, y) keys.
  static constexpr NodeId kNoMember = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> first_member_;
  std::vector<NodeId> admitted_;
  std::priority_queue<std::array<NodeId, 3>,
                      std::vector<std::array<NodeId, 3>>, std::greater<>>
      gaps_;
  /// Pre-resolved metric sinks (nullptr when observability is off).
  obs::Counter* c_uf_finds_ = nullptr;
  obs::Counter* c_uf_merges_ = nullptr;
  obs::Counter* c_pops_ = nullptr;
  obs::Counter* c_stale_ = nullptr;
  obs::Counter* c_retired_ = nullptr;
};

extern template class BasicConnectorEngine<UnitGainPolicy>;
extern template class BasicConnectorEngine<NodeWeightedGainPolicy>;

/// The production engine: the unit-gain instantiation, constructible
/// straight from a Graph. It reads \p g through a view, so \p g must
/// outlive the engine; a temporary graph does not compile.
class ConnectorEngine : public BasicConnectorEngine<UnitGainPolicy> {
 public:
  ConnectorEngine(const Graph& g, std::span<const NodeId> members,
                  const obs::Obs& obs = {})
      : BasicConnectorEngine(graph::FrozenGraph(g), members, UnitGainPolicy{},
                             obs) {}
  ConnectorEngine(Graph&& g, std::span<const NodeId> members,
                  const obs::Obs& obs = {}) = delete;
};

/// The node-weighted engine used by kmcds_weighted's phase 2. \p g and
/// \p weight must outlive the engine (it holds a view and a span).
class WeightedConnectorEngine
    : public BasicConnectorEngine<NodeWeightedGainPolicy> {
 public:
  WeightedConnectorEngine(const Graph& g, std::span<const NodeId> members,
                          std::span<const double> weight,
                          const obs::Obs& obs = {})
      : BasicConnectorEngine(graph::FrozenGraph(g), members,
                             NodeWeightedGainPolicy{weight}, obs) {}
  WeightedConnectorEngine(Graph&& g, std::span<const NodeId> members,
                          std::span<const double> weight,
                          const obs::Obs& obs = {}) = delete;
};

}  // namespace mcds::core
