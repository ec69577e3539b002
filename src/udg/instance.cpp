#include "udg/instance.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/traversal.hpp"
#include "udg/builder.hpp"

namespace mcds::udg {

UdgInstance generate_instance(const InstanceParams& params,
                              std::uint64_t seed) {
  if (params.nodes == 0) {
    throw std::invalid_argument("generate_instance: need >= 1 node");
  }
  sim::Rng rng(seed);
  UdgInstance inst;
  inst.points = deploy(params.model, params.nodes, params.side, rng);
  inst.graph = build_udg(inst.points, params.radius);
  inst.radius = params.radius;
  inst.seed = seed;
  return inst;
}

std::optional<UdgInstance> generate_connected_instance(
    const InstanceParams& params, std::uint64_t seed) {
  std::uint64_t sub = seed;
  for (std::size_t attempt = 0; attempt <= params.max_retries; ++attempt) {
    UdgInstance inst = generate_instance(params, sub);
    if (graph::is_connected(inst.graph)) {
      inst.seed = seed;  // report the top-level seed for reproducibility
      return inst;
    }
    sub = sim::splitmix64(sub);
  }
  return std::nullopt;
}

UdgInstance generate_largest_component_instance(const InstanceParams& params,
                                                std::uint64_t seed) {
  if (auto inst = generate_connected_instance(params, seed)) {
    return *std::move(inst);
  }
  // Fall back: redraw the first field (seed itself) and keep its largest
  // component.
  UdgInstance inst = generate_instance(params, seed);
  const auto [label, count] = graph::connected_components(inst.graph);
  std::vector<std::size_t> size(count, 0);
  for (const auto lbl : label) ++size[lbl];
  const auto best = static_cast<std::uint32_t>(std::distance(
      size.begin(), std::max_element(size.begin(), size.end())));

  UdgInstance out;
  out.radius = inst.radius;
  out.seed = seed;
  for (std::size_t v = 0; v < inst.points.size(); ++v) {
    if (label[v] == best) out.points.push_back(inst.points[v]);
  }
  out.graph = build_udg(out.points, inst.radius);
  return out;
}

}  // namespace mcds::udg
