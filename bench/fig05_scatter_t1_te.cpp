// Fig. 5 — Scatter of optimal path duration T1 vs time to explosion TE for
// single messages (Infocom'06 9-12). Paper shape: no clear relationship —
// large T1 with small TE and vice versa both occur. We print the scatter
// points and quantify "no clear relationship" with the Pearson correlation.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/stats/summary.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 5",
                      "optimal path duration vs time to explosion (scatter)");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = bench::bench_messages();
  plan.config.k = bench::bench_k();
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  options.keep_results = false;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& records = sweep.cells.front().records;

  stats::TablePrinter table({"src", "dst", "T1 (s)", "TE (s)"});
  std::vector<double> t1s;
  std::vector<double> tes;
  for (const auto& rec : records) {
    if (!rec.exploded) continue;
    t1s.push_back(rec.optimal_duration);
    tes.push_back(rec.time_to_explosion);
    table.add_row({std::to_string(rec.source), std::to_string(rec.destination),
                   stats::TablePrinter::fmt(rec.optimal_duration, 0),
                   stats::TablePrinter::fmt(rec.time_to_explosion, 0)});
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper: no clear relationship between T1 and "
               "TE):\n";
  std::cout << "  exploded messages: " << t1s.size() << "\n";
  if (t1s.size() >= 3)
    std::cout << "  Pearson correlation(T1, TE) = "
              << stats::pearson(t1s, tes) << " (|r| near 0 expected)\n";
  return 0;
}
