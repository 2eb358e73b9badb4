// In-memory span recorder for the traced run.
//
// A span is one call from the benchmark into a psn layer: its name
// ("engine.run_sweep", "paths.enumerate", ...), start and end on the
// steady clock, the span that caused it (0 for a root) and the request it
// belongs to (0 outside serve_mixed). Spans stay in memory and are written
// as one JSON document when the run ends. A disabled tracer records
// nothing, and Span costs one branch, so the untraced run pays nothing.
//
// Thread-safe: serve_mixed opens a request's span on the generator thread
// and closes it in the service's callback on the dispatcher thread.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  /// Closes span `id` (ignores 0).
  void end(std::uint64_t id);

  /// Per-name totals over closed spans: count, summed duration and self
  /// time (duration minus the part covered by direct child spans).
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };
  [[nodiscard]] std::vector<Summary> summarize() const;

  /// Writes {"meta": <meta_json>, "spans": [...], "summary": [...]} to
  /// `path`. Returns false if the file could not be written.
  bool write_json(const std::string& path, const std::string& meta_json) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;  ///< -1 while open.
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  ///< guarded by mu_; id = index + 1.
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
