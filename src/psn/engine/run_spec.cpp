#include "psn/engine/run_spec.hpp"

#include <utility>

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
  return {std::move(scenarios), std::move(algorithms), config};
}

}  // namespace psn::engine
