// Fig. 10 — Full delay distributions (fraction of messages delivered by
// time t) per algorithm, for Infocom'06 9-12 and CoNEXT'06 9-12. Paper
// shape: the distributions of the different algorithms are quite similar.
//
// Both datasets run in one engine sweep; the pooled per-cell delay
// vectors feed the CDFs directly.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 10", "delay distributions per algorithm");

  std::vector<core::Dataset> datasets;
  datasets.push_back(core::DatasetFactory::paper_dataset(0));
  datasets.push_back(core::DatasetFactory::paper_dataset(2));
  std::vector<engine::Scenario> scenarios;
  for (const auto& ds : datasets)
    scenarios.push_back(engine::make_scenario(ds));

  engine::PlanConfig pc;
  pc.runs = bench::bench_runs();
  const auto plan =
      engine::make_plan(scenarios, forward::paper_algorithm_names(), pc);

  engine::ThreadPool pool(bench::bench_threads());
  engine::SweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_sweep(plan, options);

  for (std::size_t idx = 0; idx < sweep.num_scenarios; ++idx) {
    std::cout << "\n" << datasets[idx].name << "\n";

    std::vector<std::string> header{"time (s)"};
    std::vector<stats::EmpiricalCdf> cdfs;
    std::vector<double> success;
    for (std::size_t a = 0; a < sweep.num_algorithms; ++a) {
      const auto& cell = sweep.cell(idx, a);
      header.push_back(cell.algorithm);
      cdfs.emplace_back(cell.delays);
      success.push_back(cell.overall.success_rate);
    }
    stats::TablePrinter table(std::move(header));
    for (double t = 0.0; t <= 7000.0; t += 500.0) {
      std::vector<std::string> row{stats::TablePrinter::fmt(t, 0)};
      for (std::size_t a = 0; a < cdfs.size(); ++a) {
        // Fraction of ALL messages delivered by t (CDF over delivered
        // messages scaled by success rate, as the paper plots).
        const double frac =
            cdfs[a].size() == 0 ? 0.0 : cdfs[a].at(t) * success[a];
        row.push_back(stats::TablePrinter::fmt(frac, 3));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: columns (algorithms) should track each other "
               "closely, with Epidemic uppermost.\n";
  bench::print_sweep_footer(sweep.total_runs, pool.size(), sweep.wall_seconds);
  return 0;
}
