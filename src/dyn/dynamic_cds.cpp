#include "dyn/dynamic_cds.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/subgraph.hpp"
#include "obs/export.hpp"
#include "obs/timer.hpp"

namespace mcds::dyn {

DynamicCds::DynamicCds(std::span<const geom::Vec2> points, DynParams params,
                       const obs::Obs& obs)
    : params_(params),
      grid_(points, params.radius),
      g_(grid_.build_graph(), params.compact_fraction,
         params.compact_min_edits),
      backbone_(g_, grid_.alive_flags()),
      obs_(obs),
      c_event_{obs.counter("dyn.events.insert"),
               obs.counter("dyn.events.move"),
               obs.counter("dyn.events.erase"),
               obs.counter("dyn.events.revive")},
      c_rebuilds_(obs.counter("dyn.rebuilds")),
      c_compactions_(obs.counter("dyn.compactions")),
      h_scope_(obs.histogram("dyn.repair_scope")) {
  if (!(params_.envelope_factor >= 1.0)) {
    throw std::invalid_argument("DynamicCds: envelope_factor must be >= 1");
  }
}

NodeId DynamicCds::insert(geom::Vec2 p, EventReport* report) {
  delta_.clear();
  const NodeId id = grid_.insert(p, delta_);
  const NodeId gid = g_.add_node();
  if (gid != id) throw std::logic_error("DynamicCds: id drift");
  const EventReport r = finish(EventKind::kInsert, id, core::NodeChange::kBorn);
  if (report != nullptr) *report = r;
  return id;
}

EventReport DynamicCds::move(NodeId v, geom::Vec2 p) {
  delta_.clear();
  grid_.move(v, p, delta_);
  return finish(EventKind::kMove, v, core::NodeChange::kNone);
}

EventReport DynamicCds::erase(NodeId v) {
  delta_.clear();
  grid_.erase(v, delta_);
  return finish(EventKind::kErase, v, core::NodeChange::kDied);
}

EventReport DynamicCds::revive(NodeId v, geom::Vec2 p) {
  delta_.clear();
  grid_.revive(v, p, delta_);
  return finish(EventKind::kRevive, v, core::NodeChange::kBorn);
}

EventReport DynamicCds::finish(EventKind kind, NodeId node,
                               core::NodeChange change) {
  EventReport r;
  r.kind = kind;
  r.edges_added = delta_.added.size();
  r.edges_removed = delta_.removed.size();
  g_.apply(delta_);
  r.repair = backbone_.on_event(g_, grid_.alive_flags(), node, change, delta_);
  if (backbone_.envelope_exceeded(params_.envelope_factor,
                                  params_.envelope_bias)) {
    obs::ScopedTimer t(obs_, "dyn.rebuild");
    backbone_.rebuild_connectors(g_, grid_.alive_flags());
    r.rebuilt = true;
    ++rebuilds_;
    if (c_rebuilds_) c_rebuilds_->add();
  }
  if (g_.compaction_due()) {
    obs::ScopedTimer t(obs_, "dyn.compact");
    g_.compact();
    r.compacted = true;
    if (c_compactions_) c_compactions_->add();
  }
  if (r.repair.changed() || r.rebuilt) ++epoch_;
  r.epoch = epoch_;
  if (c_event_[static_cast<std::size_t>(kind)]) {
    c_event_[static_cast<std::size_t>(kind)]->add();
  }
  if (h_scope_) h_scope_->record(static_cast<double>(r.repair.scope));
  // Long-run telemetry: one snapshot-sink tick per churn event.
  obs::tick_snapshot(obs_);
  return r;
}

core::CdsCheck DynamicCds::check() const {
  const graph::Graph full = g_.materialize();
  const std::vector<NodeId> alive_list = grid_.alive_nodes();
  const auto induced = graph::induced_subgraph(full, alive_list);
  // Remap the backbone into induced-subgraph ids (alive_list is
  // ascending, so local id = index in it).
  std::vector<NodeId> local_cds;
  local_cds.reserve(backbone_.cds_size());
  for (const NodeId v : backbone_.cds()) {
    const auto it =
        std::lower_bound(alive_list.begin(), alive_list.end(), v);
    if (it == alive_list.end() || *it != v) {
      core::CdsCheck bad;
      bad.ok = false;
      bad.defect = core::CdsDefect::kUndominated;
      bad.witness = v;  // a dead node is claimed by the backbone
      return bad;
    }
    local_cds.push_back(
        static_cast<NodeId>(std::distance(alive_list.begin(), it)));
  }
  return core::check_cds_components(induced.graph, local_cds);
}

core::BackboneView DynamicCds::view() const {
  core::BackboneView v;
  v.island = grid_.alive_nodes();
  v.cds = backbone_.cds();
  v.epoch = epoch_;
  return v;
}

}  // namespace mcds::dyn
