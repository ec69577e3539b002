#include "core/local_repair.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/connector_engine.hpp"
#include "graph/union_find.hpp"

namespace mcds::core {

using graph::DeltaGraph;
using graph::EdgeDelta;
using graph::NodeId;

namespace {

void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

LocalBackbone::LocalBackbone(const DeltaGraph& g,
                             std::span<const std::uint8_t> alive) {
  rebuild(g, alive);
}

void LocalBackbone::grow(std::size_t n) {
  if (in_mis_.size() >= n) return;
  in_mis_.resize(n, 0);
  in_cds_.resize(n, 0);
  cover_.resize(n, 0);
  visit_.resize(n);
}

void LocalBackbone::dec_cover(NodeId v, std::vector<NodeId>& zeros) {
  if (cover_[v] == 0) {
    throw std::logic_error("LocalBackbone: cover underflow (delta not exact?)");
  }
  if (--cover_[v] == 0) zeros.push_back(v);
}

void LocalBackbone::rebuild(const DeltaGraph& g,
                            std::span<const std::uint8_t> alive) {
  const std::size_t n = g.num_nodes();
  if (alive.size() != n) {
    throw std::invalid_argument("LocalBackbone: alive size mismatch");
  }
  grow(n);
  std::fill(in_mis_.begin(), in_mis_.end(), std::uint8_t{0});
  std::fill(cover_.begin(), cover_.end(), std::uint32_t{0});
  mis_size_ = 0;
  // Lowest-id first-fit MIS over the alive subgraph: select v iff no
  // smaller selected neighbor, i.e. cover is still zero when its turn
  // comes. Works unchanged on disconnected graphs.
  for (NodeId v = 0; v < n; ++v) {
    if (!alive[v] || cover_[v] != 0) continue;
    in_mis_[v] = 1;
    ++mis_size_;
    for (const NodeId u : g.neighbors(v)) {
      if (alive[u]) ++cover_[u];
    }
  }
  rebuild_connectors(g, alive);
}

void LocalBackbone::rebuild_connectors(const DeltaGraph& g,
                                       std::span<const std::uint8_t> alive) {
  const std::size_t n = g.num_nodes();
  if (alive.size() != n) {
    throw std::invalid_argument("LocalBackbone: alive size mismatch");
  }
  // Phase 2 as one engine over the whole topology. Dead nodes have no
  // edges, and components never interact, so each component is still
  // connected in its own max-gain order. The *maintained* MIS is
  // arbitrary-maximal (not BFS-ordered like the paper's phase 1), so
  // member fragments can sit exactly 3 hops apart — a gap no single
  // max-gain connector can merge. Each stall is patched with a connector
  // pair and the engine drained again, until no gap is left.
  const graph::Graph full = g.materialize();
  for (NodeId v = 0; v < n; ++v) {
    if (!alive[v] && full.degree(v) != 0) {
      throw std::invalid_argument("LocalBackbone: dead node with edges");
    }
  }
  grow(n);
  std::copy(in_mis_.begin(), in_mis_.end(), in_cds_.begin());
  cds_size_ = mis_size_;
  cds_dirty_ = true;
  if (mis_size_ == 0) return;

  ConnectorEngine engine(full, mis());
  const auto add = [&](NodeId v) {
    in_cds_[v] = 1;
    ++cds_size_;
  };
  while (true) {
    while (const auto step = engine.poll()) add(step->node);
    const auto gap = engine.bridge_gap();
    if (!gap) return;
    for (const NodeId v : *gap) add(v);
  }
}

RepairStats LocalBackbone::on_event(const DeltaGraph& g,
                                    std::span<const std::uint8_t> alive,
                                    NodeId node, NodeChange change,
                                    const EdgeDelta& delta) {
  const std::size_t n = g.num_nodes();
  if (alive.size() != n) {
    throw std::invalid_argument("LocalBackbone: alive size mismatch");
  }
  grow(n);
  RepairStats st;
  if (delta.empty() && change == NodeChange::kNone) return st;
  if (change != NodeChange::kNone && node >= n) {
    throw std::invalid_argument("LocalBackbone: event node out of range");
  }

  std::vector<NodeId> zeros;

  // 1. Removed edges: nodes that lost a dominator. Membership flags are
  // still pre-event here, so in_mis_ of a dying node correctly credits
  // the coverage its former neighbors are losing.
  for (const auto& [u, v] : delta.removed) {
    if (in_mis_[u]) dec_cover(v, zeros);
    if (in_mis_[v]) dec_cover(u, zeros);
  }

  // 2. Death: the node leaves both sets. Its incident edges were all in
  // delta.removed, so neighbor covers are already consistent.
  if (change == NodeChange::kDied) {
    if (in_mis_[node]) {
      in_mis_[node] = 0;
      --mis_size_;
      ++st.mis_removed;
    }
    if (in_cds_[node]) {
      in_cds_[node] = 0;
      --cds_size_;
      ++st.backbone_removed;
      cds_dirty_ = true;
    }
    cover_[node] = 0;
  }

  // 3a. Added edges: count the new adjacencies first so the eviction
  // sweeps below see fully consistent covers, and note MIS-MIS
  // conflicts.
  std::vector<std::pair<NodeId, NodeId>> conflicts;
  for (const auto& [u, v] : delta.added) {
    if (in_mis_[u]) ++cover_[v];
    if (in_mis_[v]) ++cover_[u];
    if (in_mis_[u] && in_mis_[v]) conflicts.emplace_back(u, v);
  }
  // 3b. Evictions: the larger id leaves the MIS but stays in the
  // backbone as a plain connector, so backbone connectivity is
  // untouched. Re-check both memberships — an earlier eviction may have
  // already resolved a conflict chain.
  for (const auto& [u, v] : conflicts) {
    if (!(in_mis_[u] && in_mis_[v])) continue;
    const NodeId w = std::max(u, v);
    in_mis_[w] = 0;
    --mis_size_;
    ++st.mis_removed;
    for (const NodeId x : g.neighbors(w)) {
      if (alive[x]) dec_cover(x, zeros);
    }
  }

  // 4. Birth: a node with no dominator must enter the MIS itself.
  if (change == NodeChange::kBorn) {
    if (!alive[node]) {
      throw std::invalid_argument("LocalBackbone: born node not alive");
    }
    if (cover_[node] == 0) zeros.push_back(node);
  }

  // 5. Completion cascade, ascending ids. Additions only increment
  // covers, so no new zeros can appear: one pass restores maximality
  // (every alive node is in the MIS or has cover >= 1 ⇒ dominated).
  sort_unique(zeros);
  std::vector<NodeId> new_members;
  for (const NodeId x : zeros) {
    if (!alive[x] || in_mis_[x] || cover_[x] != 0) continue;
    in_mis_[x] = 1;
    ++mis_size_;
    ++st.mis_added;
    if (!in_cds_[x]) {
      in_cds_[x] = 1;
      ++cds_size_;
      cds_dirty_ = true;
    }
    for (const NodeId y : g.neighbors(x)) {
      if (alive[y]) ++cover_[y];
    }
    new_members.push_back(x);
  }

  // 6. Connectivity: seed the repair with every backbone node in the
  // closed 1-hop halo of the touched nodes (plus the new MIS members).
  // This seed set provably hits every fragment of a component whose
  // backbone the event split (see the file comment), so the lockstep
  // search below can stop as soon as all seeds unite.
  std::vector<NodeId> touched;
  touched.reserve(2 * (delta.added.size() + delta.removed.size()) + 1);
  for (const auto& [u, v] : delta.added) {
    touched.push_back(u);
    touched.push_back(v);
  }
  for (const auto& [u, v] : delta.removed) {
    touched.push_back(u);
    touched.push_back(v);
  }
  if (change != NodeChange::kNone) touched.push_back(node);
  sort_unique(touched);

  std::vector<NodeId> seeds = std::move(new_members);
  for (const NodeId t : touched) {
    if (alive[t] && in_cds_[t]) seeds.push_back(t);
    for (const NodeId y : g.neighbors(t)) {
      if (alive[y] && in_cds_[y]) seeds.push_back(y);
    }
  }
  ensure_connected(g, alive, seeds, st);
  return st;
}

void LocalBackbone::ensure_connected(const DeltaGraph& g,
                                     std::span<const std::uint8_t> alive,
                                     std::vector<NodeId>& seeds,
                                     RepairStats& st) {
  struct Group {
    std::vector<NodeId> frontier;  ///< BFS queue, index-popped
    std::vector<NodeId> nodes;     ///< every node visited by the group
    std::size_t next = 0;
    bool finished = false;
  };

  std::vector<NodeId> islanded;  // nodes of confirmed partition islands

  for (bool first_pass = true;; first_pass = false) {
    sort_unique(seeds);
    std::vector<NodeId> active;
    active.reserve(seeds.size());
    for (const NodeId s : seeds) {
      if (!alive[s] || !in_cds_[s]) continue;
      if (std::binary_search(islanded.begin(), islanded.end(), s)) continue;
      active.push_back(s);
    }
    // With every at-risk fragment guaranteed to hold a seed, a single
    // surviving seed means no component's backbone is split.
    if (active.size() <= 1) return;

    // Lockstep multi-source BFS over G[backbone]: always expand the
    // smallest group, unite groups when searches meet. Stops when all
    // groups united (connected) or at most one is still expanding (the
    // finished ones are complete fragments to re-attach).
    if (++cur_stamp_ == 0) {  // wrapped: a stale stamp could read as current
      std::fill(visit_.begin(), visit_.end(), Visit{});
      cur_stamp_ = 1;
    }
    const auto k = static_cast<std::uint32_t>(active.size());
    graph::UnionFind uf(k);
    std::vector<Group> groups(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      const NodeId s = active[i];
      visit_[s] = {cur_stamp_, i};
      groups[i].frontier.push_back(s);
      groups[i].nodes.push_back(s);
    }
    std::size_t live = k;
    std::size_t unfinished = k;
    while (live > 1 && unfinished > 1) {
      std::uint32_t pick = k;
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (std::uint32_t i = 0; i < k; ++i) {
        if (uf.find(i) != i || groups[i].finished) continue;
        if (groups[i].nodes.size() < best) {
          best = groups[i].nodes.size();
          pick = i;
        }
      }
      if (pick == k) break;  // defensive: nothing left to expand
      const NodeId x = groups[pick].frontier[groups[pick].next++];
      std::uint32_t self = pick;
      for (const NodeId y : g.neighbors(x)) {
        // No liveness test: a dead node has no edges (udg::GridIndex
        // erases them all, and rebuild_connectors() throws otherwise),
        // so every neighbor of a backbone node is alive.
        if (!in_cds_[y]) continue;
        Visit& seen = visit_[y];
        if (seen.stamp != cur_stamp_) {
          seen = {cur_stamp_, self};
          groups[self].frontier.push_back(y);
          groups[self].nodes.push_back(y);
          continue;
        }
        const std::uint32_t other = uf.find(seen.owner);
        if (other == self) continue;
        // Two searches met: unite, folding the loser's state into
        // whichever index the union-find keeps as root.
        uf.unite(other, self);
        const std::uint32_t root = uf.find(self);
        const std::uint32_t loser = root == self ? other : self;
        Group& w = groups[root];
        Group& l = groups[loser];
        w.frontier.insert(w.frontier.end(),
                          l.frontier.begin() + static_cast<long>(l.next),
                          l.frontier.end());
        w.nodes.insert(w.nodes.end(), l.nodes.begin(), l.nodes.end());
        if (!w.finished || !l.finished) {
          if (!w.finished && !l.finished) --unfinished;
          w.finished = false;
        }
        l = Group{};
        --live;
        self = root;
      }
      Group& cur = groups[self];
      if (cur.next >= cur.frontier.size() && !cur.finished) {
        cur.finished = true;
        --unfinished;
      }
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      if (uf.find(i) == i) st.scope += groups[i].nodes.size();
    }
    if (live <= 1) return;  // every seed in one fragment ⇒ connected

    // Finished groups are complete fragments: bridge each back through
    // <= 3 hops, or prove it a partition island (no backbone node within
    // 3 hops ⇒ by the MIS adjacency lemma it is the entire backbone of
    // its own component).
    std::vector<std::uint32_t> group_root(k);
    for (std::uint32_t i = 0; i < k; ++i) group_root[i] = uf.find(i);
    std::uint32_t open = k;  // the one unfinished group, if any
    std::vector<NodeId> bridges;
    for (std::uint32_t r = 0; r < k; ++r) {
      if (group_root[r] != r) continue;
      if (!groups[r].finished) {
        open = r;
        continue;
      }
      std::vector<NodeId>& frag = groups[r].nodes;
      std::sort(frag.begin(), frag.end());
      NodeId bridge[2] = {0, 0};
      const std::size_t bn =
          find_bridge(g, alive, frag, group_root, r, bridge);
      if (bn == 0) {
        islanded.insert(islanded.end(), frag.begin(), frag.end());
        std::sort(islanded.begin(), islanded.end());
        ++st.islands;
        continue;
      }
      for (std::size_t b = 0; b < bn; ++b) {
        in_cds_[bridge[b]] = 1;
        ++cds_size_;
        ++st.connectors_added;
        cds_dirty_ = true;
        seeds.push_back(bridge[b]);
        bridges.push_back(bridge[b]);
      }
    }
    // No bridge added: everything left is one (possibly unfinished)
    // group plus self-contained islands — per-component connected.
    if (bridges.empty()) return;
    // The next pass would search from every surviving seed again. After
    // the first pass, when no fragment was islanded, prove instead that
    // the bridges joined every seed into one fragment; that search would
    // then stop at once and change nothing.
    if (first_pass && islanded.empty() &&
        bridges_rejoin(g, group_root, open, bridges)) {
      return;
    }
  }
}

bool LocalBackbone::bridges_rejoin(const DeltaGraph& g,
                                   const std::vector<std::uint32_t>& group_root,
                                   std::uint32_t open,
                                   const std::vector<NodeId>& bridges) {
  // Union-find over the pass's groups (elements 0..k-1) and its bridge
  // nodes (k + j). Every union is an edge path in the new backbone:
  //  * groups that met during the search are one connected region;
  //  * a bridge node's neighbor stamped this pass lies in its group's
  //    region, or is another bridge (stamped below with its element);
  //  * an unstamped backbone neighbor lies in the fragment of the one
  //    unfinished group. Each finished group is a complete fragment, so
  //    the neighbor's fragment is not finished. Had it no seed, then by
  //    the seed lemma (file comment) the event split no backbone of its
  //    topology component, so it would be that component's entire
  //    backbone — yet the bridge sits in the component of the finished
  //    fragment it leaves, which would then be this very fragment. So it
  //    holds a seed, and that seed's group is the unfinished one.
  // One set ⇒ every surviving seed lies in one fragment of the new
  // backbone: the next search would end at once with nothing to do.
  const auto k = static_cast<std::uint32_t>(group_root.size());
  for (std::uint32_t j = 0; j < bridges.size(); ++j) {
    visit_[bridges[j]] = {cur_stamp_, k + j};
  }
  graph::UnionFind uf(k + bridges.size());
  for (std::uint32_t i = 0; i < k; ++i) uf.unite(i, group_root[i]);
  for (std::uint32_t j = 0; j < bridges.size(); ++j) {
    for (const NodeId y : g.neighbors(bridges[j])) {
      if (!in_cds_[y]) continue;
      std::uint32_t into = open;
      if (visit_[y].stamp == cur_stamp_) {
        into = visit_[y].owner;
      } else if (open == k) {
        return false;  // no unfinished group to place it in: search
      }
      uf.unite(k + j, into);
    }
  }
  return uf.num_sets() == 1;
}

std::size_t LocalBackbone::find_bridge(
    const DeltaGraph& g, std::span<const std::uint8_t> alive,
    const std::vector<NodeId>& fragment,
    const std::vector<std::uint32_t>& group_root, std::uint32_t root,
    NodeId out[2]) const {
  const auto in_fragment = [&](NodeId z) {
    return visit_[z].stamp == cur_stamp_ && group_root[visit_[z].owner] == root;
  };
  // Distance 2: fragment — x — z with x outside the backbone and z a
  // backbone node of another fragment; x alone re-attaches us.
  // Iteration is (f asc, x asc, z asc) so the choice is deterministic.
  for (const NodeId f : fragment) {
    for (const NodeId x : g.neighbors(f)) {
      if (!alive[x] || in_cds_[x]) continue;
      for (const NodeId z : g.neighbors(x)) {
        if (!alive[z] || !in_cds_[z] || in_fragment(z)) continue;
        out[0] = x;
        return 1;
      }
    }
  }
  // Distance 3: fragment — x — y — z, connector pair {x, y}.
  for (const NodeId f : fragment) {
    for (const NodeId x : g.neighbors(f)) {
      if (!alive[x] || in_cds_[x]) continue;
      for (const NodeId y : g.neighbors(x)) {
        if (!alive[y] || in_cds_[y]) continue;
        for (const NodeId z : g.neighbors(y)) {
          if (!alive[z] || !in_cds_[z] || in_fragment(z)) continue;
          out[0] = x;
          out[1] = y;
          return 2;
        }
      }
    }
  }
  return 0;
}

const std::vector<NodeId>& LocalBackbone::cds() const {
  if (cds_dirty_) {
    cds_cache_.clear();
    cds_cache_.reserve(cds_size_);
    for (NodeId v = 0; v < in_cds_.size(); ++v) {
      if (in_cds_[v]) cds_cache_.push_back(v);
    }
    cds_dirty_ = false;
  }
  return cds_cache_;
}

std::vector<NodeId> LocalBackbone::mis() const {
  std::vector<NodeId> out;
  out.reserve(mis_size_);
  for (NodeId v = 0; v < in_mis_.size(); ++v) {
    if (in_mis_[v]) out.push_back(v);
  }
  return out;
}

bool LocalBackbone::envelope_exceeded(double factor,
                                      std::size_t bias) const noexcept {
  return static_cast<double>(cds_size_) >
         factor * static_cast<double>(mis_size_) + static_cast<double>(bias);
}

}  // namespace mcds::core
