// Conference path-explosion study: the paper's §4-§5 pipeline end to end
// on one synthetic conference window — enumerate paths for a message
// sample, report the T1/TE distributions, and break the explosion behaviour
// down by in/out quadrant.
//
// Usage: conference_explosion [num_messages] [k]

#include <cstdlib>
#include <iostream>

#include "psn/core/dataset.hpp"
#include "psn/core/quadrant.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/stats/table.hpp"
#include "psn/trace/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace psn;

  const auto dataset = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(dataset)};
  plan.config.messages = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  plan.config.k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1000;

  std::cout << "dataset " << dataset.name << ": "
            << dataset.trace.summary() << "\n";
  std::cout << "median contact rate: " << dataset.rates.median_rate
            << " contacts/s (in/out split point)\n\n";

  engine::ThreadPool pool(engine::ThreadPool::hardware_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  options.keep_results = false;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& records = sweep.cells.front().records;
  const auto quadrants = core::group_by_quadrant(records, dataset.rates);

  std::size_t delivered = 0;
  std::size_t exploded = 0;
  for (const auto& rec : records) {
    delivered += rec.delivered ? 1 : 0;
    exploded += rec.exploded ? 1 : 0;
  }
  std::cout << plan.config.messages << " messages: " << delivered
            << " delivered, " << exploded << " exploded (reached k="
            << plan.config.k << " paths)\n\n";

  const stats::EmpiricalCdf t1(paths::optimal_durations(records));
  const stats::EmpiricalCdf te(paths::times_to_explosion(records));
  if (t1.size() > 0) {
    std::cout << "optimal path duration: median=" << t1.median()
              << "s  p90=" << t1.quantile(0.9) << "s  max=" << t1.max()
              << "s\n";
  }
  if (te.size() > 0) {
    std::cout << "time to explosion:     median=" << te.median()
              << "s  p90=" << te.quantile(0.9) << "s  max=" << te.max()
              << "s\n\n";
  }

  stats::TablePrinter table({"quadrant", "messages", "exploded",
                             "mean T1 (s)", "mean TE (s)"});
  for (std::size_t q = 0; q < 4; ++q) {
    const auto& quadrant = quadrants.of(static_cast<trace::Quadrant>(q));
    double t1_sum = 0.0;
    double te_sum = 0.0;
    std::size_t n_del = 0;
    std::size_t n_exp = 0;
    for (const auto& rec : quadrant) {
      if (rec.delivered) {
        t1_sum += rec.optimal_duration;
        ++n_del;
      }
      if (rec.exploded) {
        te_sum += rec.time_to_explosion;
        ++n_exp;
      }
    }
    table.add_row(
        {trace::quadrant_name(static_cast<trace::Quadrant>(q)),
         std::to_string(quadrant.size()), std::to_string(n_exp),
         n_del ? stats::TablePrinter::fmt(
                     t1_sum / static_cast<double>(n_del), 0)
               : "-",
         n_exp ? stats::TablePrinter::fmt(
                     te_sum / static_cast<double>(n_exp), 0)
               : "-"});
  }
  table.print(std::cout);
  std::cout << "\nExpect: in-* rows have small mean T1; *-in rows have "
               "small mean TE (paper §5.2).\n";
  return 0;
}
