#include "dist/distributed_cds.hpp"

#include <stdexcept>

namespace mcds::dist {

DistributedCdsResult distributed_waf_cds(const Graph& g, const RunConfig& cfg,
                                         std::size_t round_offset) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("distributed_waf_cds: empty graph");
  }
  DistributedCdsResult out;
  if (g.num_nodes() == 1) {
    out.cds = {0};
    out.mis.in_mis = {true};
    out.mis.mis = {0};
    return out;
  }

  // One fault timeline threads through the four phases.
  std::size_t offset = round_offset;
  const LeaderResult leader = elect_leader(g, cfg, offset);
  out.leader = leader.leader;
  out.leader_stats = leader.stats;
  offset += leader.stats.rounds;

  out.tree = build_bfs_tree(g, out.leader, cfg, offset);
  offset += out.tree.stats.rounds;
  out.mis = elect_mis(g, out.tree.level, cfg, offset);
  offset += out.mis.stats.rounds;
  out.connectors = select_connectors(g, out.leader, out.tree.parent,
                                     out.mis.in_mis, cfg, offset);
  out.cds = out.connectors.cds;
  out.complete = leader.complete && out.tree.complete && out.mis.complete &&
                 out.connectors.complete;

  out.total = leader.stats;
  out.total += out.tree.stats;
  out.total += out.mis.stats;
  out.total += out.connectors.stats;
  return out;
}

}  // namespace mcds::dist
