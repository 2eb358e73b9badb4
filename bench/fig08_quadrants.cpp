// Fig. 8 — The Fig. 5 scatter split into the four source/destination rate
// quadrants (in-in, in-out, out-in, out-out), Infocom'06 9-12.
//
// Paper shape (§5.2 hypotheses):
//   in-in:   T1 small, TE small (< 150 s)
//   in-out:  T1 small, TE variable/large
//   out-in:  T1 larger, TE small
//   out-out: T1 large, TE large
// T1 is governed by the source's rate class, TE by the destination's.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/core/quadrant.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/stats/summary.hpp"
#include "psn/stats/table.hpp"
#include "psn/trace/trace_stats.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 8", "T1 vs TE scatter by pair quadrant");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  // The quadrants split the sample four ways, so draw twice as many.
  plan.config.messages = bench::bench_messages() * 2;
  plan.config.k = bench::bench_k();
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  options.keep_results = false;
  const auto quadrants = core::group_by_quadrant(
      engine::run_path_sweep(plan, options).cells.front().records, ds.rates);

  for (std::size_t q = 0; q < 4; ++q) {
    const auto quadrant = static_cast<trace::Quadrant>(q);
    const auto& records = quadrants.of(quadrant);
    std::cout << "\n(" << static_cast<char>('a' + q) << ") "
              << trace::quadrant_name(quadrant) << "\n";
    stats::TablePrinter table({"T1 (s)", "TE (s)"});
    stats::Accumulator t1_acc;
    stats::Accumulator te_acc;
    for (const auto& rec : records) {
      if (!rec.exploded) continue;
      t1_acc.add(rec.optimal_duration);
      te_acc.add(rec.time_to_explosion);
      table.add_row({stats::TablePrinter::fmt(rec.optimal_duration, 0),
                     stats::TablePrinter::fmt(rec.time_to_explosion, 0)});
    }
    table.print(std::cout);
    if (t1_acc.count() > 0)
      std::cout << "  mean T1=" << t1_acc.mean()
                << "s  mean TE=" << te_acc.mean() << "s  (n=" << t1_acc.count()
                << ", plus " << records.size() - t1_acc.count()
                << " not exploded)\n";
  }

  std::cout << "\nShape check (paper: T1 ordered by source class, TE by "
               "destination class) printed above via quadrant means.\n";
  return 0;
}
