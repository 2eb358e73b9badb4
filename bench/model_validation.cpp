// §5.1 analytic model validation: the ODE density system vs the closed
// forms vs the exact Markov jump simulation, and the exponential growth
// prediction E[S(t)] = E[S(0)] e^{lambda t} (Eq. 4).
//
// The jump side runs as a replica ensemble through the engine's model
// sweep (engine::run_model_sweep): per-replica SplitMix64 substreams,
// fanned out across the thread pool, aggregated into a mean trajectory
// with across-replica variance — a far tighter Kurtz-limit check than
// the single realization this bench used to print. PSN_BENCH_MODEL_REPLICAS
// (default 8) sets the ensemble size; PSN_BENCH_THREADS the worker count.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/model/homogeneous_model.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Model (5.1)",
                      "homogeneous path-explosion model validation");

  model::HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 2000;

  const std::size_t replicas = bench::bench_model_replicas(8);
  std::cout << "lambda=" << m.lambda << "  N=" << m.population
            << "  H = ln N / lambda = " << m.expected_first_path_time()
            << " s   (jump ensemble: " << replicas << " replicas)\n\n";

  // ODE trajectory vs closed-form mean.
  const auto traj = model::integrate_density_ode(m, 128, 120.0, 0.05, 13);

  // The jump-process ensemble at the same parameters, through the engine.
  engine::ModelSweepPlan plan;
  engine::ModelScenario scenario;
  scenario.name = "validation";
  scenario.jump.population = m.population;
  scenario.jump.lambda = m.lambda;
  scenario.jump.t_end = 120.0;
  scenario.jump.samples = 13;
  scenario.mc.messages = 0;  // this bench studies the homogeneous half.
  plan.scenarios = {scenario};
  plan.config.jump_replicas = replicas;
  plan.config.master_seed = 17;
  engine::ThreadPool pool(bench::bench_threads());
  engine::ModelSweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_model_sweep(plan, options);
  const auto& ensemble = sweep.cells[0].trajectory;

  stats::TablePrinter table({"t (s)", "E[S] closed form", "E[S] ODE",
                             "E[S] ensemble", "+/- sd", "u0 ODE", "u0 jump",
                             "mass ODE"});
  for (std::size_t i = 0; i < traj.size() && i < ensemble.size(); ++i) {
    table.add_row({stats::TablePrinter::fmt(traj[i].t, 0),
                   stats::TablePrinter::fmt(m.mean_paths(traj[i].t), 5),
                   stats::TablePrinter::fmt(traj[i].mean, 5),
                   stats::TablePrinter::fmt(ensemble[i].mean_paths, 5),
                   stats::TablePrinter::fmt(
                       std::sqrt(ensemble[i].var_mean_paths), 5),
                   stats::TablePrinter::fmt(traj[i].u[0], 5),
                   stats::TablePrinter::fmt(ensemble[i].mean_low_density[0], 5),
                   stats::TablePrinter::fmt(model::total_mass(traj[i].u), 6)});
  }
  table.print(std::cout);

  std::cout << "\nVariance growth (closed form, Eq. 5.1.3):\n";
  stats::TablePrinter tv({"t (s)", "V[S(t)]", "V ratio per +20s",
                          "e^{2 lambda 20}"});
  double prev = m.variance_paths(20.0);
  for (double t = 40.0; t <= 120.0; t += 20.0) {
    const double v = m.variance_paths(t);
    tv.add_row({stats::TablePrinter::fmt(t, 0),
                stats::TablePrinter::fmt(v, 8),
                stats::TablePrinter::fmt(v / prev, 3),
                stats::TablePrinter::fmt(std::exp(2 * m.lambda * 20.0), 3)});
    prev = v;
  }
  tv.print(std::cout);

  std::cout << "\nLight-tail loss time TC(x) (Eq. 3):\n";
  for (const double x : {1.5, 2.0, 4.0})
    std::cout << "  TC(" << x << ") = " << m.blowup_time(x) << " s\n";

  std::cout << "\nShape check: ODE mean matches e^{lambda t} growth; the "
               "jump ensemble tracks both (Kurtz limit); mass stays 1.\n";
  bench::print_sweep_footer(sweep.total_replicas, pool.size(),
                            sweep.wall_seconds);
  return 0;
}
