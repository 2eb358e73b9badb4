// Message workloads (paper §6.1): messages are generated by a Poisson
// process (one message per 4 seconds) over the first two hours of each
// window, with source and destination drawn uniformly at random.
//
// Both generators — the Poisson-rate process and the fixed-count uniform
// sample used by path enumeration — live behind one config-driven entry
// point, generate_workload(), selected by WorkloadConfig::mode. A given
// (mode, seed) pair always yields the same message stream (pinned by
// core_test), with the traffic dimensions (size, TTL) stamped on
// afterwards.

#pragma once

#include <cstdint>
#include <vector>

#include "psn/forward/message.hpp"
#include "psn/paths/explosion.hpp"

namespace psn::core {

/// How generate_workload decides how many messages to emit.
enum class WorkloadMode : std::uint8_t {
  /// Poisson arrivals at `message_rate` per second until `horizon` (the
  /// paper's workload; message count is a random variable).
  kPoissonRate,
  /// Exactly `count` messages with creation times uniform in [0, horizon)
  /// (the path-enumeration sample of §1/§4).
  kFixedCount,
};

struct WorkloadConfig {
  WorkloadMode mode = WorkloadMode::kPoissonRate;
  double message_rate = 0.25;  ///< messages per second (1 per 4 s).
  std::size_t count = 0;       ///< message count under kFixedCount.
  trace::Seconds horizon = 2.0 * 3600.0;  ///< creation window.
  std::uint64_t seed = 1;
  /// Traffic dimensions stamped on every generated message; the defaults
  /// (unit size, no TTL) reproduce the unconstrained workloads exactly.
  std::uint32_t size_bytes = 1;
  forward::Seconds ttl = forward::kNoTtl;
};

/// Generates the configured workload over `num_nodes` nodes; deterministic
/// in (mode, seed). Throws std::invalid_argument for < 2 nodes or a
/// non-positive rate under kPoissonRate.
[[nodiscard]] std::vector<forward::Message> generate_workload(
    trace::NodeId num_nodes, const WorkloadConfig& config);

/// The kFixedCount mode projected onto paths::MessageSpec.
[[nodiscard]] std::vector<paths::MessageSpec> uniform_message_sample(
    trace::NodeId num_nodes, std::size_t count, trace::Seconds horizon,
    std::uint64_t seed);

}  // namespace psn::core
