// The forwarding algorithm registry: the suites' display names and the
// one constructor that turns a name into an instance.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

/// Display names of the two suites, in suite order. These are the keys of
/// make_algorithm and the axis labels of engine sweep plans. The paper
/// suite is the six algorithms it evaluates (§6.1), in its order:
/// Epidemic, FRESH, Greedy, Greedy Total, Greedy Online, Dynamic
/// Programming. The extended suite adds the related-work extensions:
/// Direct, Random, Spray+Wait, PRoPHET.
[[nodiscard]] std::vector<std::string> paper_algorithm_names();
[[nodiscard]] std::vector<std::string> extended_algorithm_names();

/// Constructs a fresh instance of the algorithm with the given display
/// name (as returned by ForwardingAlgorithm::name()). Each call returns an
/// independent instance, so concurrent runs never share algorithm state.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<ForwardingAlgorithm> make_algorithm(
    std::string_view name);

}  // namespace psn::forward
