#include "psn/core/workload.hpp"

#include <stdexcept>

#include "psn/util/rng.hpp"

namespace psn::core {

std::vector<forward::Message> generate_workload(trace::NodeId num_nodes,
                                                const WorkloadConfig& config) {
  if (num_nodes < 2)
    throw std::invalid_argument("workload needs at least 2 nodes");
  util::Rng rng(config.seed);

  std::vector<forward::Message> out;
  // Draw orders are load-bearing: reordering a branch's draws changes the
  // workload every historical seed means (core_test pins both streams).
  if (config.mode == WorkloadMode::kPoissonRate) {
    if (!(config.message_rate > 0.0))
      throw std::invalid_argument("poisson workload needs a positive rate");
    double t = rng.exponential(config.message_rate);
    std::uint32_t id = 0;
    while (t < config.horizon) {
      forward::Message m;
      m.id = id++;
      m.created = t;
      m.source = static_cast<trace::NodeId>(rng.uniform_index(num_nodes));
      auto dst = static_cast<trace::NodeId>(rng.uniform_index(num_nodes - 1));
      if (dst >= m.source) ++dst;
      m.destination = dst;
      out.push_back(m);
      t += rng.exponential(config.message_rate);
    }
  } else {
    out.reserve(config.count);
    for (std::size_t i = 0; i < config.count; ++i) {
      forward::Message m;
      m.id = static_cast<std::uint32_t>(i);
      m.source = static_cast<trace::NodeId>(rng.uniform_index(num_nodes));
      auto dst = static_cast<trace::NodeId>(rng.uniform_index(num_nodes - 1));
      if (dst >= m.source) ++dst;
      m.destination = dst;
      m.created = rng.uniform(0.0, config.horizon);
      out.push_back(m);
    }
  }
  for (forward::Message& m : out) {
    m.size_bytes = config.size_bytes;
    m.ttl = config.ttl;
  }
  return out;
}

std::vector<paths::MessageSpec> uniform_message_sample(trace::NodeId num_nodes,
                                                       std::size_t count,
                                                       trace::Seconds horizon,
                                                       std::uint64_t seed) {
  WorkloadConfig c;
  c.mode = WorkloadMode::kFixedCount;
  c.count = count;
  c.horizon = horizon;
  c.seed = seed;
  const auto msgs = generate_workload(num_nodes, c);
  std::vector<paths::MessageSpec> out;
  out.reserve(msgs.size());
  for (const forward::Message& m : msgs)
    out.push_back({m.source, m.destination, m.created});
  return out;
}

}  // namespace psn::core
