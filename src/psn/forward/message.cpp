#include "psn/forward/message.hpp"

namespace psn::forward {

std::size_t SimulationResult::delivered_count() const noexcept {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.delivered) ++n;
  return n;
}

}  // namespace psn::forward
