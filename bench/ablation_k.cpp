// Ablation — the explosion threshold k. The paper uses T_2000 and remarks
// "there is nothing sacrosanct about the number 2000". This harness sweeps
// k and shows the time-to-k grows slowly with k once the explosion has
// begun (exponential growth means each doubling of k costs little time).

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Ablation", "explosion threshold k sweep");

  // Enumerate once at the largest k; derive T_k for smaller k from the
  // same growth curves.
  const auto ds = core::DatasetFactory::paper_dataset(0);
  const std::size_t k_max = bench::bench_k();
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = bench::bench_messages() / 2 + 10;
  plan.config.k = k_max;
  plan.config.seed = 6;
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  options.keep_results = false;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& records = sweep.cells.front().records;

  stats::TablePrinter table({"k", "messages with k paths",
                             "median (T_k - T_1) (s)"});
  for (std::size_t k : {std::size_t{10}, std::size_t{100}, std::size_t{500},
                        k_max / 2, k_max}) {
    std::vector<double> tks;
    for (const auto& rec : records) {
      if (!rec.delivered) continue;
      for (const auto& gp : rec.growth) {
        if (gp.cumulative >= k) {
          tks.push_back(gp.offset);
          break;
        }
      }
    }
    const stats::EmpiricalCdf cdf(std::move(tks));
    table.add_row(
        {std::to_string(k), std::to_string(cdf.size()),
         cdf.size() ? stats::TablePrinter::fmt(cdf.median(), 0) : "-"});
  }
  table.print(std::cout);

  std::cout << "\nShape check: T_k - T_1 grows slowly (logarithmically) in "
               "k — the 2000 threshold is not critical.\n";
  return 0;
}
