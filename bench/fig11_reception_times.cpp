// Fig. 11 — Cumulative count of optimal/near-optimal path arrivals over
// wall-clock time (Infocom'06 9-12). Paper shape: the delivery rate is
// fairly uniform in time — message delivery is not concentrated in bursts
// (e.g. coffee breaks), ruling out "everyone meets at the break" as the
// explanation for path explosion.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/stats/histogram.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 11",
                      "cumulative reception times of near-optimal paths");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = bench::bench_messages();
  plan.config.k = bench::bench_k();
  plan.config.seed = 42;
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& results = sweep.cells.front().results;

  stats::Histogram receptions(0.0, ds.trace.t_max(), 36);  // 5-min bins.
  for (const auto& r : results)
    for (const auto& d : r.deliveries)
      receptions.add(d.arrival, static_cast<double>(d.count));

  const auto cumulative = receptions.cumulative();
  stats::TablePrinter table(
      {"time (s)", "arrivals in bin", "cumulative arrivals"});
  for (std::size_t b = 0; b < receptions.bin_count(); ++b)
    table.add_row({stats::TablePrinter::fmt(receptions.bin_left(b), 0),
                   stats::TablePrinter::fmt(receptions.count(b), 0),
                   stats::TablePrinter::fmt(cumulative[b], 0)});
  table.print(std::cout);

  // Shape check: coefficient of variation of per-bin arrivals over the
  // message-generation horizon (excluding the tail hour).
  double sum = 0.0;
  double sq = 0.0;
  std::size_t n = 0;
  for (std::size_t b = 0; b < receptions.bin_count(); ++b) {
    if (receptions.bin_left(b) >= ds.message_horizon) break;
    sum += receptions.count(b);
    sq += receptions.count(b) * receptions.count(b);
    ++n;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sq / static_cast<double>(n) - mean * mean;
  std::cout << "\nShape check (paper: delivery fairly uniform in time):\n"
            << "  per-bin arrival CV over the first 2h = "
            << (mean > 0 ? std::sqrt(std::max(var, 0.0)) / mean : 0.0)
            << " (no dominant burst)\n";
  return 0;
}
