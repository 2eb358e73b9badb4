// psn_serve — resident sweep service speaking newline-delimited JSON.
//
// Usage:
//   psn_serve [--threads N] [--batch-window-ms W] [--cache-budget-bytes B]
//             [--stats-every N]
//
// The transport is stdio: one request per line on stdin, one response
// per line on stdout (periodic stats lines go to stderr). The process
// stays resident: scenario contexts are cached under a byte budget,
// concurrent requests for the same scenario coalesce into one engine
// execution, and every response carries latency/cache telemetry. See
// DESIGN.md §10 for the request schema.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "psn/serve/server.hpp"
#include "psn/serve/service.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--threads N] [--batch-window-ms W]"
               " [--cache-budget-bytes B] [--stats-every N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  psn::serve::ServiceConfig config;
  config.stats_every = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "psn_serve: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--threads") {
        config.threads = std::stoul(value());
      } else if (arg == "--batch-window-ms") {
        config.batch_window_seconds = std::stod(value()) / 1000.0;
      } else if (arg == "--cache-budget-bytes") {
        config.cache_budget_bytes = std::stoull(value());
      } else if (arg == "--stats-every") {
        config.stats_every = std::stoul(value());
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::cerr << "psn_serve: unknown option " << arg << '\n';
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::cerr << "psn_serve: bad value for " << arg << '\n';
      return 2;
    }
  }

  std::optional<psn::serve::SweepService> service;
  try {
    service.emplace(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "psn_serve: " << e.what() << '\n';
    return 2;
  }
  return psn::serve::run_stdio_server(*service, std::cin, std::cout);
}
