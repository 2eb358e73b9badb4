// Trace tooling: generate synthetic traces to files, inspect trace files,
// and window them — the I/O surface of the library.
//
// Usage:
//   trace_tools generate <out.trace> [conference|homogeneous|rwp] [seed]
//   trace_tools inspect  <in.trace>
//   trace_tools window   <in.trace> <out.trace> <lo-sec> <hi-sec>

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "psn/stats/table.hpp"
#include "psn/synth/conference.hpp"
#include "psn/synth/homogeneous.hpp"
#include "psn/synth/random_waypoint.hpp"
#include "psn/trace/trace_io.hpp"
#include "psn/trace/trace_stats.hpp"

namespace {

int usage() {
  std::cerr
      << "usage:\n"
      << "  trace_tools generate <out.trace> [conference|homogeneous|rwp] "
         "[seed]\n"
      << "  trace_tools inspect  <in.trace>\n"
      << "  trace_tools window   <in.trace> <out.trace> <lo-sec> <hi-sec>\n";
  return 2;
}

/// A trace of `kind`, or nothing when no generator has that name.
std::optional<psn::trace::ContactTrace> generate(const std::string& kind,
                                                 std::uint64_t seed) {
  using namespace psn::synth;
  if (kind == "conference") {
    ConferenceConfig config;
    config.seed = seed;
    config.modulation = default_conference_modulation(config.t_max);
    return generate_conference(config).trace;
  }
  if (kind == "homogeneous") {
    HomogeneousConfig config;
    config.seed = seed;
    return generate_homogeneous(config);
  }
  if (kind == "rwp") {
    RandomWaypointConfig config;
    config.seed = seed;
    return generate_random_waypoint(config);
  }
  return std::nullopt;
}

void inspect(const psn::trace::ContactTrace& trace) {
  using psn::stats::TablePrinter;
  std::cout << trace.summary() << "\n";
  std::cout << "total contact time: " << trace.total_contact_time()
            << " s\n";
  const auto rc = psn::trace::classify_rates(trace);
  std::cout << "median contact rate: " << rc.median_rate << " contacts/s\n";

  const auto cdf = psn::trace::contact_count_cdf(trace);
  TablePrinter table({"percentile", "contacts per node"});
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
    table.add_row({TablePrinter::fmt(q, 2),
                   TablePrinter::fmt(cdf.quantile(q), 0)});
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") {
      const std::string kind = argc > 3 ? argv[3] : "conference";
      const std::uint64_t seed =
          argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
      const auto trace = generate(kind, seed);
      if (!trace) {
        std::cerr << "unknown trace kind '" << kind << "'\n";
        return usage();
      }
      psn::trace::write_trace_file(argv[2], *trace);
      std::cout << "wrote " << trace->summary() << " to " << argv[2] << "\n";
      return 0;
    }
    if (command == "inspect") {
      inspect(psn::trace::read_trace_file(argv[2]));
      return 0;
    }
    if (command == "window") {
      if (argc < 6) return usage();
      const auto trace = psn::trace::read_trace_file(argv[2]);
      const double lo = std::strtod(argv[4], nullptr);
      const double hi = std::strtod(argv[5], nullptr);
      const auto cut = trace.window(lo, hi);
      psn::trace::write_trace_file(argv[3], cut);
      std::cout << "wrote " << cut.summary() << " to " << argv[3] << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
