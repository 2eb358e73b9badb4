#include "psn/engine/run_spec.hpp"

namespace psn::engine {

namespace {

// Historical per-run strides of the pre-engine forwarding study, so plans
// reproduce its results exactly.
constexpr std::uint64_t kWorkloadStride = 1000003ULL;
constexpr std::uint64_t kSimStride = 7919ULL;

}  // namespace

Scenario make_scenario(const core::Dataset& dataset, trace::Seconds delta) {
  Scenario scenario;
  scenario.name = dataset.name;
  // Non-owning alias: the caller keeps the dataset alive for the sweep.
  scenario.dataset =
      std::shared_ptr<const core::Dataset>(&dataset, [](const core::Dataset*) {});
  scenario.delta = delta;
  // The alias above does not own the dataset, so the context cache must
  // not keep the context alive past the caller (run_spec.hpp).
  scenario.cache_retainable = false;
  return scenario;
}

std::uint64_t workload_stream_seed(std::uint64_t master_seed,
                                   std::size_t run) noexcept {
  return master_seed + static_cast<std::uint64_t>(run) * kWorkloadStride;
}

std::uint64_t sim_stream_seed(std::uint64_t master_seed,
                              std::size_t run) noexcept {
  return master_seed + static_cast<std::uint64_t>(run) * kSimStride;
}

SweepPlan make_plan(std::vector<Scenario> scenarios,
                    std::vector<std::string> algorithms,
                    const PlanConfig& config) {
  SweepPlan plan;
  plan.scenarios = std::move(scenarios);
  plan.algorithms = std::move(algorithms);
  plan.config = config;
  plan.runs.reserve(plan.scenarios.size() * plan.algorithms.size() *
                    config.runs);
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    for (std::size_t a = 0; a < plan.algorithms.size(); ++a) {
      for (std::size_t r = 0; r < config.runs; ++r) {
        RunSpec spec;
        spec.scenario = s;
        spec.algorithm = a;
        spec.run = r;
        spec.workload_seed = workload_stream_seed(config.master_seed, r);
        spec.sim_seed = sim_stream_seed(config.master_seed, r);
        spec.message_rate = config.message_rate;
        plan.runs.push_back(spec);
      }
    }
  }
  return plan;
}

}  // namespace psn::engine
