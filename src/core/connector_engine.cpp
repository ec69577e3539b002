#include "core/connector_engine.hpp"

namespace mcds::core {

// The two shipped policies are instantiated here once: unit gain
// (ConnectorEngine) and node-weighted gain behind kmcds_weighted.
template class BasicConnectorEngine<UnitGainPolicy>;
template class BasicConnectorEngine<NodeWeightedGainPolicy>;

}  // namespace mcds::core
