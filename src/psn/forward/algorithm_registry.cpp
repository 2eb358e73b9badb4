#include "psn/forward/algorithm_registry.hpp"

#include <stdexcept>

#include "psn/forward/algorithms/direct.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/algorithms/fresh.hpp"
#include "psn/forward/algorithms/greedy.hpp"
#include "psn/forward/algorithms/greedy_online.hpp"
#include "psn/forward/algorithms/greedy_total.hpp"
#include "psn/forward/algorithms/min_expected_delay.hpp"
#include "psn/forward/algorithms/prophet.hpp"
#include "psn/forward/algorithms/randomized.hpp"
#include "psn/forward/algorithms/spray_and_wait.hpp"

namespace psn::forward {

std::vector<std::string> paper_algorithm_names() {
  return {"Epidemic",      "FRESH",         "Greedy",
          "Greedy Total",  "Greedy Online", "Dynamic Programming"};
}

std::vector<std::string> extended_algorithm_names() {
  auto out = paper_algorithm_names();
  out.insert(out.end(), {"Direct", "Random", "Spray+Wait", "PRoPHET"});
  return out;
}

std::unique_ptr<ForwardingAlgorithm> make_algorithm(std::string_view name) {
  if (name == "Epidemic") return std::make_unique<EpidemicForwarding>();
  if (name == "FRESH") return std::make_unique<FreshForwarding>();
  if (name == "Greedy") return std::make_unique<GreedyForwarding>();
  if (name == "Greedy Total") return std::make_unique<GreedyTotalForwarding>();
  if (name == "Greedy Online")
    return std::make_unique<GreedyOnlineForwarding>();
  if (name == "Dynamic Programming")
    return std::make_unique<MinExpectedDelayForwarding>();
  if (name == "Direct") return std::make_unique<DirectDelivery>();
  if (name == "Random") return std::make_unique<RandomizedForwarding>();
  if (name == "Spray+Wait") return std::make_unique<SprayAndWaitForwarding>();
  if (name == "PRoPHET") return std::make_unique<ProphetForwarding>();
  throw std::invalid_argument("make_algorithm: unknown algorithm '" +
                              std::string(name) + "'");
}

}  // namespace psn::forward
