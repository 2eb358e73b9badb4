#include "psn/core/workload.hpp"

#include <stdexcept>
#include <tuple>
#include <utility>

#include "psn/util/rng.hpp"

namespace psn::core {

namespace {

void check_nodes(trace::NodeId num_nodes) {
  if (num_nodes < 2)
    throw std::invalid_argument("workload needs at least 2 nodes");
}

/// A uniform source, then a uniform destination other than it.
std::pair<trace::NodeId, trace::NodeId> draw_pair(util::Rng& rng,
                                                  trace::NodeId num_nodes) {
  const auto source = static_cast<trace::NodeId>(rng.uniform_index(num_nodes));
  auto dst = static_cast<trace::NodeId>(rng.uniform_index(num_nodes - 1));
  if (dst >= source) ++dst;
  return {source, dst};
}

}  // namespace

// Draw orders are load-bearing: reordering either generator's draws
// changes the workload every historical seed means (core_test pins both
// streams).

std::vector<forward::Message> generate_workload(trace::NodeId num_nodes,
                                                const WorkloadConfig& config) {
  check_nodes(num_nodes);
  if (!(config.message_rate > 0.0))
    throw std::invalid_argument("poisson workload needs a positive rate");
  util::Rng rng(config.seed);

  std::vector<forward::Message> out;
  double t = rng.exponential(config.message_rate);
  std::uint32_t id = 0;
  while (t < config.horizon) {
    forward::Message m;
    m.id = id++;
    m.created = t;
    std::tie(m.source, m.destination) = draw_pair(rng, num_nodes);
    m.size_bytes = config.size_bytes;
    m.ttl = config.ttl;
    out.push_back(m);
    t += rng.exponential(config.message_rate);
  }
  return out;
}

std::vector<paths::MessageSpec> uniform_message_sample(trace::NodeId num_nodes,
                                                       std::size_t count,
                                                       trace::Seconds horizon,
                                                       std::uint64_t seed) {
  check_nodes(num_nodes);
  util::Rng rng(seed);
  std::vector<paths::MessageSpec> out(count);
  for (paths::MessageSpec& m : out) {
    std::tie(m.source, m.destination) = draw_pair(rng, num_nodes);
    m.t_start = rng.uniform(0.0, horizon);
  }
  return out;
}

}  // namespace psn::core
