// Fig. 15 — Box plots of the ratio lambda_{h+1}/lambda_h of consecutive
// node contact rates along near-optimal paths (Infocom'06 9-12). Paper
// shape: nearly all first hops go to a higher-rate node (ratio > 1), and
// the 2nd/3rd transitions also tend above 1.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/paths/hop_profile.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 15",
                      "rate ratios across consecutive hops (box stats)");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = bench::bench_messages();
  plan.config.k = bench::bench_k();
  plan.config.seed = 22;
  plan.config.record_paths = true;
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& results = sweep.cells.front().results;

  paths::HopProfileCollector collector(ds.trace.contact_rates(), 10);
  for (const auto& r : results) collector.add(r);

  const auto ratios = collector.ratio_profile();
  stats::TablePrinter table({"transition", "q1", "median", "q3",
                             "whisker lo", "whisker hi", "samples"});
  for (std::size_t h = 0; h < ratios.ratio.size(); ++h) {
    const auto& b = ratios.ratio[h];
    table.add_row({std::to_string(h + 1) + "/" + std::to_string(h),
                   stats::TablePrinter::fmt(b.q1, 2),
                   stats::TablePrinter::fmt(b.median, 2),
                   stats::TablePrinter::fmt(b.q3, 2),
                   stats::TablePrinter::fmt(b.whisker_lo, 2),
                   stats::TablePrinter::fmt(b.whisker_hi, 2),
                   std::to_string(ratios.samples[h])});
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper: early transitions have median ratio "
               "> 1 — hops climb toward higher-rate nodes):\n";
  if (!ratios.ratio.empty())
    std::cout << "  first-hop median ratio = " << ratios.ratio[0].median
              << (ratios.ratio[0].median > 1.0 ? "  (> 1, as expected)"
                                               : "  (NOT > 1)")
              << "\n";
  return 0;
}
