// Shared helpers for the figure-regeneration benches.
//
// Every bench binary is a self-contained harness: it builds the synthetic
// datasets, runs the pipeline behind one figure of the paper, and prints
// the series the figure plots, plus a short "paper vs measured" shape
// check. Environment knobs (so the full suite stays runnable in minutes):
//
//   PSN_BENCH_MESSAGES  enumeration sample size per dataset (default 80)
//   PSN_BENCH_K         explosion threshold (default 2000, as in the paper)
//   PSN_BENCH_RUNS      forwarding simulation runs (default 3; paper: 10)
//   PSN_BENCH_THREADS   worker threads of the driver's one sweep pool
//                       (default: one per hardware thread)

#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "psn/engine/thread_pool.hpp"

namespace psn::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* raw = std::getenv(name)) {
    const long long v = std::atoll(raw);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

inline std::size_t bench_messages() {
  return env_size("PSN_BENCH_MESSAGES", 80);
}
/// Jump-process realizations per model-sweep ensemble
/// (PSN_BENCH_MODEL_REPLICAS; callers pass their own default).
inline std::size_t bench_model_replicas(std::size_t fallback) {
  return env_size("PSN_BENCH_MODEL_REPLICAS", fallback);
}
inline std::size_t bench_k() { return env_size("PSN_BENCH_K", 2000); }
inline std::size_t bench_runs() { return env_size("PSN_BENCH_RUNS", 3); }
inline std::size_t bench_threads() {
  return env_size("PSN_BENCH_THREADS", engine::ThreadPool::hardware_threads());
}

inline void print_sweep_footer(std::size_t total_runs, std::size_t threads,
                               double wall_seconds) {
  std::cout << "\n[sweep] " << total_runs << " runs on " << threads
            << " threads in " << wall_seconds << " s\n";
}

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::cout << "==========================================================\n"
            << figure << ": " << description << '\n'
            << "==========================================================\n";
}

}  // namespace psn::bench
