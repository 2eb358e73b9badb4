// §5.2 heterogeneous-rate Monte Carlo: per-quadrant T1 and TE statistics
// under uniform(0, max) node rates — the model-side counterpart of Fig. 8.
// Paper hypotheses: T1 follows the source class, TE the destination class.
//
// The message sample fans out across the engine's model sweep
// (engine::run_model_sweep): one SplitMix64 substream per message, the
// shared population drawn once, results slot-addressed and summarized
// per quadrant by core::summarize_mc_by_quadrant (NaN-sentinel safe:
// undelivered messages cannot deflate a mean). PSN_BENCH_THREADS sets
// the worker count; the table is bit-identical at any.

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/stats/summary.hpp"
#include "psn/stats/table.hpp"
#include "psn/trace/trace_stats.hpp"

int main() {
  using namespace psn;
  bench::print_header("Model (5.2)",
                      "heterogeneous subset-explosion Monte Carlo");

  engine::ModelSweepPlan plan;
  engine::ModelScenario scenario;
  scenario.name = "heterogeneous";
  scenario.mc.population = 100;
  scenario.mc.max_rate = 0.12;
  scenario.mc.t_end = 7200.0;
  scenario.mc.k = 2000;
  scenario.mc.messages = 2000;
  plan.scenarios = {scenario};
  plan.config.jump_replicas = 0;  // this bench studies the MC half.
  plan.config.master_seed = 99;
  engine::ThreadPool pool(bench::bench_threads());
  engine::ModelSweepOptions options;
  options.pool = &pool;
  options.keep_messages = false;  // the quadrant summary is the product.
  const auto sweep = engine::run_model_sweep(plan, options);
  const core::McQuadrantSummary& quadrants = sweep.cells[0].quadrants;

  stats::TablePrinter table({"pair type", "messages", "mean T1 (s)",
                             "T1 99% ci", "mean TE (s)", "exploded"});
  for (std::size_t q = 0; q < 4; ++q) {
    const auto& t1 = quadrants.t1[q];
    const auto& te = quadrants.te[q];
    table.add_row(
        {trace::quadrant_name(static_cast<trace::Quadrant>(q)),
         std::to_string(quadrants.messages[q]),
         t1.count() ? stats::TablePrinter::fmt(t1.mean(), 0) : "-",
         t1.count() > 1
             ? "+/- " + stats::TablePrinter::fmt(ci99_halfwidth(t1), 0)
             : "-",
         te.count() ? stats::TablePrinter::fmt(te.mean(), 0) : "-",
         std::to_string(quadrants.exploded[q])});
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper 5.2): mean T1(in-*) < mean T1(out-*); "
               "mean TE(*-in) < mean TE(*-out).\n";
  bench::print_sweep_footer(sweep.total_messages, pool.size(),
                            sweep.wall_seconds);
  return 0;
}
