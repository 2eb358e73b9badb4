#include "psn/forward/algorithms/epidemic.hpp"

#include <utility>

namespace psn::forward {

std::shared_ptr<const ObservationSnapshot>
EpidemicForwarding::build_shared_snapshot(
    const graph::SpaceTimeGraph& graph,
    const trace::ContactTrace& /*trace*/) const {
  return std::make_shared<const ComponentIndexSnapshot>(graph);
}

void EpidemicForwarding::adopt_shared_snapshot(
    std::shared_ptr<const ObservationSnapshot> snapshot) {
  snapshot_ = std::dynamic_pointer_cast<const ComponentIndexSnapshot>(
      std::move(snapshot));
}

}  // namespace psn::forward
