#include "psn/core/forwarding_study.hpp"

#include <stdexcept>

#include "psn/engine/run_spec.hpp"

namespace psn::core {

ForwardingStudyResult run_forwarding_study(
    const Dataset& dataset, const ForwardingStudyConfig& config) {
  // The study is a single-scenario sweep: the engine derives the same
  // per-run workload / simulator streams the pre-engine implementation
  // used (see run_spec.cpp), so results are bit-identical to the serial
  // version at every thread count.
  engine::PlanConfig pc;
  pc.runs = config.runs;
  pc.master_seed = config.seed;
  pc.message_rate = config.message_rate;
  pc.traffic = config.traffic;
  pc.message_size_bytes = config.message_size_bytes;
  pc.message_ttl = config.message_ttl;

  auto plan = engine::make_plan(
      {engine::make_scenario(dataset, config.delta)},
      config.extended_suite ? forward::extended_algorithm_names()
                            : forward::paper_algorithm_names(),
      pc);

  engine::SweepOptions options;
  options.threads = config.threads;
  return {engine::run_sweep(plan, options).cells};
}

OfferedLoadStudy run_offered_load_study(const Dataset& dataset,
                                        const OfferedLoadConfig& config) {
  if (config.rate_multipliers.empty() || config.algorithms.empty())
    throw std::invalid_argument("run_offered_load_study: empty axes");

  OfferedLoadStudy study;
  study.points.reserve(config.rate_multipliers.size() *
                       config.algorithms.size());
  // One engine sweep per multiplier: the workload rate is part of the
  // plan, and keeping each load level a separate plan preserves the
  // engine's paired-workload property within the level (every algorithm
  // at a given load sees the same messages).
  for (const double multiplier : config.rate_multipliers) {
    engine::PlanConfig pc;
    pc.runs = config.runs;
    pc.master_seed = config.seed;
    pc.message_rate = config.base_message_rate * multiplier;
    pc.traffic = config.traffic;
    pc.message_size_bytes = config.message_size_bytes;
    pc.message_ttl = config.message_ttl;

    auto plan = engine::make_plan(
        {engine::make_scenario(dataset, config.delta)}, config.algorithms,
        pc);

    engine::SweepOptions options;
    options.threads = config.threads;
    options.keep_delays = false;  // load curves need aggregates only.
    const auto sweep = engine::run_sweep(plan, options);

    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      const engine::CellSummary& cell = sweep.cell(0, a);
      OfferedLoadPoint point;
      point.rate_multiplier = multiplier;
      point.message_rate = pc.message_rate;
      point.algorithm = cell.algorithm;
      point.messages_offered = cell.messages_offered;
      point.success_rate = cell.overall.success_rate;
      point.average_delay = cell.overall.average_delay;
      point.cost_per_message = cell.cost_per_message;
      if (cell.messages_offered > 0) {
        const auto offered = static_cast<double>(cell.messages_offered);
        point.drop_rate = static_cast<double>(cell.drops) / offered;
        point.expiry_rate = static_cast<double>(cell.expirations) / offered;
      }
      point.evictions = cell.evictions;
      point.budget_blocked = cell.budget_blocked;
      study.points.push_back(std::move(point));
    }
  }
  return study;
}

}  // namespace psn::core
