// Forwarding-algorithm comparison: run the paper's six algorithms plus the
// related-work extensions (Direct, Random, Spray+Wait, PRoPHET) over a
// Poisson workload and print success rate / average delay — the §6 study
// as a library consumer would run it.
//
// Usage: forwarding_comparison [runs] [dataset-index 0..3]

#include <cstdlib>
#include <iostream>

#include "psn/core/dataset.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/stats/table.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  engine::PlanConfig config;  // paper: 1 message per 4 s, seed 7.
  config.runs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3;
  const std::size_t idx =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) % 4 : 0;

  const auto dataset = core::DatasetFactory::paper_dataset(idx);
  std::cout << "dataset " << dataset.name << ": "
            << dataset.trace.summary() << "\n";
  std::cout << config.runs << " runs, Poisson workload (1 msg / "
            << 1.0 / config.message_rate << " s over the first 2 h)\n\n";

  const auto plan =
      engine::make_plan({engine::make_scenario(dataset)},
                        forward::extended_algorithm_names(), config);
  engine::ThreadPool pool(engine::ThreadPool::hardware_threads());
  engine::SweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_sweep(plan, options);

  stats::TablePrinter table({"algorithm", "success rate", "avg delay (s)",
                             "in-in S", "out-out S"});
  for (const auto& study : sweep.cells) {
    table.add_row(
        {study.overall.algorithm,
         stats::TablePrinter::fmt(study.overall.success_rate, 3),
         stats::TablePrinter::fmt(study.overall.average_delay, 0),
         stats::TablePrinter::fmt(
             study.by_pair_type.per_type[0].success_rate, 3),
         stats::TablePrinter::fmt(
             study.by_pair_type.per_type[3].success_rate, 3)});
  }
  table.print(std::cout);

  std::cout << "\nReading guide: the six paper algorithms cluster tightly "
               "(path explosion at work); Epidemic bounds them; Direct "
               "shows the no-forwarding floor; pair type matters more than "
               "algorithm.\n";
  return 0;
}
