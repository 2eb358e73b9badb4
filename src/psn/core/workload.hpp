// Message workloads (paper §6.1): messages are generated by a Poisson
// process (one message per 4 seconds) over the first two hours of each
// window, with source and destination drawn uniformly at random.
//
// generate_workload() is that Poisson process; uniform_message_sample()
// draws the fixed-size message sample the path enumeration studies (§1,
// §4) use. Each is deterministic in its seed, and core_test pins the
// head of both streams bit for bit.

#pragma once

#include <cstdint>
#include <vector>

#include "psn/forward/message.hpp"
#include "psn/paths/explosion.hpp"

namespace psn::core {

struct WorkloadConfig {
  double message_rate = 0.25;  ///< messages per second (1 per 4 s).
  trace::Seconds horizon = 2.0 * 3600.0;  ///< creation window.
  std::uint64_t seed = 1;
  /// Traffic dimensions stamped on every generated message; the defaults
  /// (unit size, no TTL) reproduce the unconstrained workloads exactly.
  std::uint32_t size_bytes = 1;
  forward::Seconds ttl = forward::kNoTtl;
};

/// Poisson arrivals at `message_rate` per second until `horizon` over
/// `num_nodes` nodes (the message count is a random variable);
/// deterministic in the seed. Throws std::invalid_argument for < 2 nodes
/// or a rate that is not positive.
[[nodiscard]] std::vector<forward::Message> generate_workload(
    trace::NodeId num_nodes, const WorkloadConfig& config);

/// Exactly `count` messages with creation times uniform in [0, horizon);
/// deterministic in the seed. Throws std::invalid_argument for < 2 nodes.
[[nodiscard]] std::vector<paths::MessageSpec> uniform_message_sample(
    trace::NodeId num_nodes, std::size_t count, trace::Seconds horizon,
    std::uint64_t seed);

}  // namespace psn::core
