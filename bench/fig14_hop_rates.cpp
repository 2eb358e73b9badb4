// Fig. 14 — Mean contact rate of the node at hop h of near-optimal paths,
// with 99% confidence intervals (Infocom'06 9-12). Paper shape: rates rise
// over the first ~3 hops then level off — successful paths climb the
// contact-rate gradient.

#include <iostream>

#include "bench_common.hpp"
#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/paths/hop_profile.hpp"
#include "psn/stats/table.hpp"

int main() {
  using namespace psn;
  bench::print_header("Figure 14",
                      "mean contact rates of nodes at each hop (99% CI)");

  const auto ds = core::DatasetFactory::paper_dataset(0);
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = bench::bench_messages();
  plan.config.k = bench::bench_k();
  plan.config.seed = 21;
  plan.config.record_paths = true;
  engine::ThreadPool pool(bench::bench_threads());
  engine::PathSweepOptions options;
  options.pool = &pool;
  const auto sweep = engine::run_path_sweep(plan, options);
  const auto& results = sweep.cells.front().results;

  paths::HopProfileCollector collector(ds.trace.contact_rates(), 10);
  for (const auto& r : results) collector.add(r);

  const auto profile = collector.rate_profile();
  stats::TablePrinter table(
      {"hop #", "mean rate (contacts/s)", "99% CI halfwidth", "samples"});
  for (std::size_t h = 0; h < profile.mean.size(); ++h)
    table.add_row({std::to_string(h),
                   stats::TablePrinter::fmt(profile.mean[h], 4),
                   stats::TablePrinter::fmt(profile.ci99[h], 4),
                   std::to_string(profile.samples[h])});
  table.print(std::cout);

  std::cout << "\nShape check (paper: rates increase over the first ~3 hops "
               "then flatten):\n";
  if (profile.mean.size() >= 3)
    std::cout << "  hop0 -> hop1 -> hop2 means: " << profile.mean[0] << " -> "
              << profile.mean[1] << " -> " << profile.mean[2]
              << (profile.mean[2] > profile.mean[0] ? "  (increasing)"
                                                    : "  (NOT increasing)")
              << "\n";
  return 0;
}
