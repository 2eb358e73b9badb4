// psn_perfbench: runs one benchmark workload and prints its metrics.
//
//   psn_perfbench --workload forward_city|paths_paper|serve_mixed
//                 --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--commit SHA] [--source-digest HEX]
//
// Prints one "name value unit" line per metric, a "meta" line recording
// the host and build, and, as the last line of standard output, the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
// the spans go to --trace-out. Exits non-zero without a result line when
// the workload throws or the build is not a Release build.

#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.dataset_s", "s"},
    {"graph.build_s", "s"},
    {"graph.bytes_per_contact", "B"},
    {"forward.snapshot_s.PRoPHET", "s"},
    {"forward.snapshot_s.FRESH", "s"},
    {"forward.snapshot_bytes", "B"},
    {"forward.run_s.Epidemic.p50", "s"},
    {"forward.run_s.Epidemic.p90", "s"},
    {"forward.run_s.FRESH.p50", "s"},
    {"forward.run_s.FRESH.p90", "s"},
    {"forward.run_s.PRoPHET.p50", "s"},
    {"forward.run_s.PRoPHET.p90", "s"},
    {"forward.run_s.SprayWait.p50", "s"},
    {"forward.run_s.SprayWait.p90", "s"},
    {"forward.transmissions", "count"},
    {"engine.sweep_s", "s"},
    {"engine.pool_busy_frac", "frac"},
    {"engine.path_pool_busy_frac", "frac"},
    {"engine.cache_hits", "count"},
    {"engine.cache_misses", "count"},
    {"engine.cache_evictions", "count"},
    {"engine.resident_bytes", "B"},
    {"paths.enum_s.p50", "s"},
    {"paths.enum_s.p90", "s"},
    {"paths.steps_replayed", "count"},
    {"paths.contact_events", "count"},
    {"paths.peak_stored_paths", "count"},
    {"paths.truncated_candidates", "count"},
    {"paths.exploded_frac", "frac"},
    {"model.jump_events_per_s", "1/s"},
    {"model.mc_messages_per_s", "1/s"},
    {"serve.latency_p50_s", "s"},
    {"serve.latency_p90_s", "s"},
    {"serve.parse_s", "s"},
    {"serve.queue_wait_s.p50", "s"},
    {"serve.queue_wait_s.p90", "s"},
    {"serve.run_s.forwarding", "s"},
    {"serve.run_s.path", "s"},
    {"serve.run_s.model", "s"},
    {"serve.build_s", "s"},
    {"serve.batch_size_mean", "req"},
    {"serve.coalesced_frac", "frac"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.max_queue_depth", "count"},
    {"serve.dispatcher_busy_frac", "frac"},
    {"serve.late_s.p90", "s"},
    {"serve.late_s.max", "s"},
    {"trace.overhead.ops_per_s", "1/s"},
    {"trace.overhead.latency_p50_s", "s"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "psn_perfbench: %s\nusage: psn_perfbench --workload "
               "forward_city|paths_paper|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--commit SHA] "
               "[--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double value) {
  char out[64];
  std::snprintf(out, sizeof out, "%.17g", value);
  return out;
}

}  // namespace

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string metric_token(const std::string& name) {
  std::string out;
  for (const char c : name)
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-')
      out += c;
  return out;
}

void Report::show_latency(const std::vector<double>& samples) {
  show("latency_samples", static_cast<double>(samples.size()), "count");
  if (percentile_nameable(samples.size(), 50.0))
    show("latency_p50_s", percentile(samples, 50.0), "s");
  const double tail = highest_nameable_percentile(samples.size());
  if (tail > 50.0) {
    char name[32];
    std::snprintf(name, sizeof name, "latency_p%g_s", tail);
    show(name, percentile(samples, tail), "s");
  }
}

void report_trace_overhead(Report& report, const WarmFigures& untraced,
                           const WarmFigures& traced) {
  report.metrics["trace.overhead.ops_per_s"] =
      traced.ops_per_s - untraced.ops_per_s;
  report.metrics["trace.overhead.latency_p50_s"] =
      traced.latency_p50_s - untraced.latency_p50_s;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds > 0.0) || options.seconds > 600.0)
    usage("--seconds must be in (0, 600]");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "psn_perfbench: refusing to report timings from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }

  const std::string meta =
      std::string("{\"workload\":\"") + json_escape(options.workload) +
      "\",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + number(options.seconds) +
      ",\"trace\":" + (options.trace ? "1" : "0") +
      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"hardware_threads\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) +
      "\",\"build_type\":\"" + json_escape(build_type) +
      "\",\"git_commit\":\"" + json_escape(commit) +
      "\",\"source_digest\":\"" + json_escape(source_digest) + "\"}";
  std::printf("meta %s\n", meta.c_str());
  std::fflush(stdout);

  Tracer tracer(options.trace);
  Report report;
  try {
    if (options.workload == "forward_city") {
      report = run_forward_city(options, tracer);
    } else if (options.workload == "paths_paper") {
      report = run_paths_paper(options, tracer);
    } else if (options.workload == "serve_mixed") {
      report = run_serve_mixed(options, tracer);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psn_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  report.metrics["trace.spans"] = 0.0;
  for (const Tracer::Summary& s : tracer.summarize())
    report.metrics["trace.spans"] += static_cast<double>(s.count);

  if (options.trace && !trace_out.empty() &&
      !tracer.write_json(trace_out, meta)) {
    std::fprintf(stderr, "psn_perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  // Layers a workload does not exercise report 0 (no work done there).
  std::string metrics_json;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = report.metrics.find(spec.name);
    if (required && it == report.metrics.end()) {
      std::fprintf(stderr, "psn_perfbench: %s did not measure %s\n",
                   options.workload.c_str(), spec.name);
      std::exit(1);
    }
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "psn_perfbench: %s is not finite\n", spec.name);
      std::exit(1);
    }
    std::printf("%-32s %-22s %s\n", spec.name, number(value).c_str(),
                spec.unit);
    metrics_json += std::string(metrics_json.empty() ? "" : ",") + "\"" +
                    spec.name + "\":{\"value\":" + number(value) +
                    ",\"unit\":\"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }

  const bool correct = report.valid && report.failed == 0;
  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  for (const Report::Shown& s : report.shown)
    std::printf("%-32s %-22s %s (shown, not gated)\n", s.name.c_str(),
                number(s.value).c_str(), s.unit.c_str());
  std::printf("%-32s %-22s %s\n", "failed_frac", number(failed_frac).c_str(),
              "frac");
  for (const std::string& problem : report.problems)
    std::printf("problem: %s\n", problem.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json.c_str());
  return 0;
}
