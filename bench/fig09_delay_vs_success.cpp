// Fig. 9 — Average delay vs success rate for the six forwarding algorithms
// on all four datasets. Paper shape: all algorithms cluster tightly, with
// Epidemic somewhat better (higher success, lower delay) since it always
// finds the optimal path.
//
// Runs as a single engine sweep: (6 algorithms) x (4 datasets) x (runs)
// on the thread pool, instead of four serial per-dataset studies.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 9",
                      "average delay vs success rate, six algorithms");

  const auto datasets = core::DatasetFactory::paper_datasets();
  std::vector<engine::Scenario> scenarios;
  scenarios.reserve(datasets.size());
  for (const auto& ds : datasets)
    scenarios.push_back(engine::make_scenario(ds));

  engine::PlanConfig pc;
  pc.runs = bench::bench_runs();
  const auto plan =
      engine::make_plan(scenarios, forward::paper_algorithm_names(), pc);

  engine::ThreadPool pool(bench::bench_threads());
  engine::SweepOptions options;
  options.pool = &pool;
  options.keep_delays = false;
  const auto sweep = engine::run_sweep(plan, options);

  for (std::size_t idx = 0; idx < sweep.num_scenarios; ++idx) {
    std::cout << "\n(" << static_cast<char>('a' + idx) << ") "
              << datasets[idx].name << "  (" << pc.runs << " runs)\n";
    stats::TablePrinter table(
        {"algorithm", "success rate", "avg delay (s)", "delivered/messages"});
    for (std::size_t a = 0; a < sweep.num_algorithms; ++a) {
      const auto& overall = sweep.cell(idx, a).overall;
      table.add_row(
          {overall.algorithm,
           stats::TablePrinter::fmt(overall.success_rate, 3),
           stats::TablePrinter::fmt(overall.average_delay, 0),
           std::to_string(overall.delivered) + "/" +
               std::to_string(overall.messages)});
    }
    table.print(std::cout);

    // Shape check: spread of the non-epidemic algorithms.
    double lo_s = 1.0;
    double hi_s = 0.0;
    for (std::size_t a = 1; a < sweep.num_algorithms; ++a) {
      lo_s = std::min(lo_s, sweep.cell(idx, a).overall.success_rate);
      hi_s = std::max(hi_s, sweep.cell(idx, a).overall.success_rate);
    }
    std::cout << "  non-epidemic success-rate spread: " << hi_s - lo_s
              << " (paper: algorithms nearly identical)\n";
  }
  bench::print_sweep_footer(sweep.total_runs, pool.size(), sweep.wall_seconds);
  return 0;
}
