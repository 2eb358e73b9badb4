#include "psn/core/path_study.hpp"

#include "psn/engine/path_sweep.hpp"
#include "psn/engine/run_spec.hpp"

namespace psn::core {

std::vector<double> PathStudyResult::optimal_durations() const {
  std::vector<double> out;
  for (const auto& rec : records)
    if (rec.delivered) out.push_back(rec.optimal_duration);
  return out;
}

std::vector<double> PathStudyResult::times_to_explosion() const {
  std::vector<double> out;
  for (const auto& rec : records)
    if (rec.exploded) out.push_back(rec.time_to_explosion);
  return out;
}

PathStudyResult run_path_study(const Dataset& dataset,
                               const PathStudyConfig& config) {
  // The study is a single-scenario path sweep: the graph comes from the
  // shared ScenarioContextCache (one build per dataset, reused while any
  // holder is alive), and the engine draws the same message-sample stream
  // the serial implementation used, so records are bit-identical to the
  // pre-engine study at every thread count.
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(dataset, config.delta)};
  plan.config.messages = config.messages;
  plan.config.k = config.k;
  plan.config.seed = config.seed;
  plan.config.record_paths = false;

  engine::PathSweepOptions options;
  options.threads = config.threads;
  options.keep_results = false;  // T1/TE records are all the study needs.
  auto sweep = engine::run_path_sweep(plan, options);

  PathStudyResult result;
  result.records = std::move(sweep.cells.front().records);
  result.quadrants = group_by_quadrant(result.records, dataset.rates);
  return result;
}

}  // namespace psn::core
