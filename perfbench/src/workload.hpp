// The interface between the benchmark main program (main.cpp) and its three
// workloads. Each workload sets itself up (timed), measures its warm phase
// untraced for the requested seconds, repeats the warm phase traced when
// tracing is on, and then checks its outputs against an oracle outside the
// timed region. Metric names are the ones BENCHMARK.json lists.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Report {
  std::uint64_t attempted = 0;  ///< operations of the untraced warm phase.
  std::uint64_t failed = 0;     ///< failed operations plus oracle mismatches.
  bool valid = true;            ///< false: the measurement itself is unusable.
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;

  /// Figures printed for the reader before the result line but left out
  /// of it: each workload's own throughput name and its latency
  /// percentiles. On a shared host their run-to-run spread is too wide for
  /// a regression bound (see METRICS.md), so they are reported, not gated.
  struct Shown {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Shown> shown;

  void show(std::string name, double value, std::string unit) {
    shown.push_back({std::move(name), value, std::move(unit)});
  }
  /// Shows latency_p50_s and the highest nameable tail percentile of
  /// `samples` (latency_p90_s, latency_p95_s, ...), with the sample count.
  void show_latency(const std::vector<double>& samples);

  void mismatch(std::uint64_t ops, const std::string& what) {
    failed += ops;
    problems.push_back(what);
  }
  void invalidate(const std::string& why) {
    valid = false;
    problems.push_back(why);
  }
};

/// The end-to-end figures of one warm phase; the traced and untraced
/// phases are compared through these to report the tracing overhead.
struct WarmFigures {
  double ops_per_s = 0.0;
  double latency_p50_s = 0.0;
};

/// Sets trace.overhead.* to traced minus untraced.
void report_trace_overhead(Report& report, const WarmFigures& untraced,
                           const WarmFigures& traced);

/// Seconds on the steady clock since `start`.
[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The process's resident-memory high-water mark so far, in MiB. Each
/// workload reads it when its untraced warm phase ends, before the check
/// (whose oracle runs would otherwise set the peak).
[[nodiscard]] double peak_rss_mib();

/// Algorithm name as it appears inside a metric name ("Spray+Wait" ->
/// "SprayWait"; metric names allow letters, digits, '_', '.', '-').
[[nodiscard]] std::string metric_token(const std::string& name);

Report run_forward_city(const Options& options, Tracer& tracer);
Report run_paths_paper(const Options& options, Tracer& tracer);
Report run_serve_mixed(const Options& options, Tracer& tracer);

}  // namespace perfbench
