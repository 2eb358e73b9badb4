// Fig. 4 — (a) CDFs of optimal path duration T1 and (b) CDFs of time to
// explosion TE = T_2000 - T_1, for the two Infocom'06 windows.
//
// Paper shape: T1 is long-tailed (>25% of messages above 1000 s) while TE
// is short (about half the messages explode almost immediately; 97% within
// 150 s) — an order-of-magnitude separation.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 4",
                      "CDFs of optimal path duration and time to explosion");

  // Both windows run as one two-scenario path sweep.
  const core::Dataset datasets[] = {core::DatasetFactory::paper_dataset(0),
                                    core::DatasetFactory::paper_dataset(1)};
  engine::PathSweepPlan plan;
  for (const auto& ds : datasets)
    plan.scenarios.push_back(engine::make_scenario(ds));
  plan.config.messages = bench::bench_messages();
  plan.config.k = bench::bench_k();
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  options.keep_results = false;
  const auto sweep = engine::run_path_sweep(plan, options);

  std::vector<std::string> names;
  std::vector<stats::EmpiricalCdf> t1_cdfs;
  std::vector<stats::EmpiricalCdf> te_cdfs;
  for (const auto& cell : sweep.cells) {
    names.push_back(cell.scenario);
    t1_cdfs.emplace_back(paths::optimal_durations(cell.records));
    te_cdfs.emplace_back(paths::times_to_explosion(cell.records));
  }

  std::cout << "(a) optimal path duration CDF\n";
  stats::TablePrinter ta({"T1 (s)", names[0] + " P[X<=x]",
                          names[1] + " P[X<=x]"});
  for (double x = 0.0; x <= 8000.0; x += 400.0)
    ta.add_row({stats::TablePrinter::fmt(x, 0),
                stats::TablePrinter::fmt(t1_cdfs[0].at(x), 3),
                stats::TablePrinter::fmt(t1_cdfs[1].at(x), 3)});
  ta.print(std::cout);

  std::cout << "\n(b) time to explosion CDF\n";
  stats::TablePrinter tb({"TE (s)", names[0] + " P[X<=x]",
                          names[1] + " P[X<=x]"});
  for (double x = 0.0; x <= 500.0; x += 25.0)
    tb.add_row({stats::TablePrinter::fmt(x, 0),
                stats::TablePrinter::fmt(te_cdfs[0].at(x), 3),
                stats::TablePrinter::fmt(te_cdfs[1].at(x), 3)});
  tb.print(std::cout);

  std::cout << "\nShape check (paper: T1 long-tailed, TE concentrated; "
               "~97% of TE <= 150 s):\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (t1_cdfs[i].size() == 0 || te_cdfs[i].size() == 0) continue;
    std::cout << "  " << names[i]
              << ": P[T1 > 1000s]=" << 1.0 - t1_cdfs[i].at(1000.0)
              << "  P[TE <= 150s]=" << te_cdfs[i].at(150.0)
              << "  median T1=" << t1_cdfs[i].median()
              << "s  median TE=" << te_cdfs[i].median() << "s\n";
  }
  return 0;
}
