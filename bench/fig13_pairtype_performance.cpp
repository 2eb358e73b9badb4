// Fig. 13 — Average delay (a) and success rate (b) for each algorithm,
// broken down by source/destination pair type, Infocom'06 9-12.
//
// Paper shape: performance depends primarily on the pair type rather than
// the algorithm; in-in is easy for everyone; algorithms with maximum
// contact knowledge (Greedy Total, Dynamic Programming) pull ahead when an
// 'out' node is involved, especially when the source is 'out'.

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
  bench::print_header("Figure 13",
                      "per-pair-type performance of the six algorithms");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PlanConfig pc;
  pc.runs = bench::bench_runs();
  const auto plan = engine::make_plan({engine::make_scenario(ds)},
                                      forward::paper_algorithm_names(), pc);

  engine::ThreadPool pool(bench::bench_threads());
  engine::SweepOptions options;
  options.pool = &pool;
  options.keep_delays = false;
  const auto sweep = engine::run_sweep(plan, options);

  std::cout << "\n(a) average delay (s)\n";
  stats::TablePrinter ta(
      {"algorithm", "in-in", "in-out", "out-in", "out-out"});
  for (std::size_t a = 0; a < sweep.num_algorithms; ++a) {
    const auto& cell = sweep.cell(0, a);
    std::vector<std::string> row{cell.algorithm};
    for (const auto& p : cell.by_pair_type.per_type)
      row.push_back(stats::TablePrinter::fmt(p.average_delay, 0));
    ta.add_row(std::move(row));
  }
  ta.print(std::cout);

  std::cout << "\n(b) success rate\n";
  stats::TablePrinter tb(
      {"algorithm", "in-in", "in-out", "out-in", "out-out"});
  for (std::size_t a = 0; a < sweep.num_algorithms; ++a) {
    const auto& cell = sweep.cell(0, a);
    std::vector<std::string> row{cell.algorithm};
    for (const auto& p : cell.by_pair_type.per_type)
      row.push_back(stats::TablePrinter::fmt(p.success_rate, 3));
    tb.add_row(std::move(row));
  }
  tb.print(std::cout);

  std::cout << "\nShape check (paper: in-in best for everyone; out pairs "
               "harder; oracles win when source is 'out').\n";
  bench::print_sweep_footer(sweep.total_runs, pool.size(), sweep.wall_seconds);
  return 0;
}
