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
/// entry whose stored gain matches its re-computed gain (a node's weight
/// is fixed, so its score matches too) is exactly the node the reference
/// picks: maximum score, ties to the smallest id. The differential test
/// suite pins trace-for-trace equality.
///
/// The engine reads adjacency through the CSR view graph::FrozenGraph.
/// A candidate's score is its gain, divided by its node weight when the
/// caller passes weights. Unit gains are the paper's plain-CDS selection
/// bit for bit. Gain per unit of weight serves the node-weighted
/// (1,m)-CDS builder (kmcds.hpp); a fixed positive weight per node keeps
/// both facts above true.
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

namespace mcds::core {

/// Incremental max-score connector selection over a growing member set.
class ConnectorEngine {
 public:
  /// Seeds the engine with \p members (phase-1 dominators; any duplicate
  /// or out-of-range node throws std::invalid_argument). Member-member
  /// edges are united immediately, so the seed need not be independent.
  /// \p obs (null sinks by default) counts union-find finds/merges and
  /// lazy-queue pops/stale re-scores under "connector_engine.*".
  /// \p weight, when not empty, holds one positive weight per node and
  /// ranks candidates by gain per unit of weight; empty means unit gains.
  /// The engine holds a view of \p g and a span of \p weight, so both
  /// must outlive it; a temporary graph does not compile.
  ConnectorEngine(const Graph& g, std::span<const NodeId> members,
                  const obs::Obs& obs = {}, std::span<const double> weight = {})
      : g_(g),
        rank_{weight},
        uf_(g.num_nodes()),
        member_(g.num_nodes(), false),
        heap_(rank_),
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
    if (done()) return;
    // Seed the lazy queue: per Lemma 9 a positive-gain node always exists
    // while q > 1, and any node that becomes positive later is a neighbor
    // of an added connector, which select_next() refreshes.
    for (NodeId w = 0; w < n; ++w) {
      if (!member_[w]) push_if_candidate(w);
    }
  }

  ConnectorEngine(Graph&& g, std::span<const NodeId> members,
                  const obs::Obs& obs = {},
                  std::span<const double> weight = {}) = delete;

  /// Number of connected components of G[members] right now.
  [[nodiscard]] std::size_t components() const noexcept { return q_; }

  /// True once one component remains: phase 2 is finished.
  [[nodiscard]] bool done() const noexcept { return q_ <= 1; }

  /// Selects the maximum-score connector (ties toward the smaller node
  /// id), adds it to the member set and merges the components it touches.
  /// Throws std::logic_error if no positive-gain node exists although
  /// q > 1 (the seed was not a maximal independent set of a connected
  /// graph — cf. Lemma 9).
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
      const Entry now{static_cast<std::uint32_t>(distinct - 1), top.node};
      if (now.gain != top.gain) {
        heap_.push(now);  // stale: re-score and keep popping
        if (c_stale_) c_stale_->add();
        continue;
      }
      const GreedyStep step{top.node, q_, now.gain};
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
    if (done()) return std::nullopt;
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
  /// A queued candidate and its gain when pushed.
  struct Entry {
    std::uint32_t gain;
    NodeId node;
  };

  /// The heap order: the higher score first, then the smaller id. A
  /// score is the gain, divided by the node's weight when weights are
  /// given. Unit entries compare their integer gains, which order and tie
  /// as their doubles would: 16-byte double-keyed entries made phase 2 on
  /// 10^5-node fields about 10 % slower. The weight check still costs it
  /// 1-4 % against a comparator of integer gains alone.
  struct Ranking {
    std::span<const double> weight;  ///< empty: unit gains

    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const {
      if (weight.empty()) {
        if (a.gain != b.gain) return a.gain < b.gain;
      } else {
        const double sa = a.gain / weight[a.node];
        const double sb = b.gain / weight[b.node];
        if (sa != sb) return sa < sb;
      }
      return a.node > b.node;
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
      heap_.push({static_cast<std::uint32_t>(distinct - 1), w});
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
  Ranking rank_;
  graph::UnionFind uf_;
  std::vector<bool> member_;
  std::priority_queue<Entry, std::vector<Entry>, Ranking> heap_;
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

}  // namespace mcds::core
