// Extension — forwarding cost. The paper's conclusion (§7) notes that it
// does not consider forwarding cost and that "there may be good reasons to
// prefer one algorithm over another even if they show similar
// performance". This harness quantifies exactly that: transmissions per
// message next to success rate and delay for the full algorithm suite,
// run as one engine sweep over the ten extended algorithms.
//
// Expected shape: Epidemic pays orders of magnitude more transmissions for
// its modest delay advantage; the single-copy algorithms cluster at a few
// transmissions per message; Spray+Wait buys near-single-copy cost with
// bounded replication.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Extension",
                      "forwarding cost (transmissions per message)");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PlanConfig pc;
  pc.runs = bench::bench_runs();
  const auto plan = engine::make_plan({engine::make_scenario(ds)},
                                      forward::extended_algorithm_names(), pc);

  engine::ThreadPool pool(bench::bench_threads());
  engine::SweepOptions options;
  options.pool = &pool;
  options.keep_delays = false;
  const auto sweep = engine::run_sweep(plan, options);

  stats::TablePrinter table({"algorithm", "success rate", "avg delay (s)",
                             "avg hops", "tx / message", "tx / delivered"});
  for (std::size_t a = 0; a < sweep.num_algorithms; ++a) {
    const auto& cell = sweep.cell(0, a);
    const double per_delivered =
        cell.overall.delivered > 0
            ? cell.cost_per_message *
                  static_cast<double>(cell.overall.messages) /
                  static_cast<double>(cell.overall.delivered)
            : 0.0;
    table.add_row({cell.algorithm,
                   stats::TablePrinter::fmt(cell.overall.success_rate, 3),
                   stats::TablePrinter::fmt(cell.overall.average_delay, 0),
                   stats::TablePrinter::fmt(cell.overall.average_hops, 2),
                   stats::TablePrinter::fmt(cell.cost_per_message, 1),
                   stats::TablePrinter::fmt(per_delivered, 1)});
  }
  table.print(std::cout);

  std::cout << "\nShape check: Epidemic's cost dwarfs the single-copy "
               "schemes while its delay advantage is modest — the path "
               "explosion means cheap algorithms find near-optimal paths "
               "anyway.\n";
  bench::print_sweep_footer(sweep.total_runs, pool.size(), sweep.wall_seconds);
  return 0;
}
