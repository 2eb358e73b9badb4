// Order statistics for benchmark reporting.
//
// Percentiles interpolate between order statistics like Python's
// statistics.quantiles(method="exclusive") — the method the run-to-run
// spread of the benchmark is judged with (perfbench/spread.py) — so a
// quartile computed here and one computed from the same samples in Python
// agree whenever the rank falls inside the sample.

#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 < p < 100) of `values` by the exclusive method:
/// rank p/100 * (n + 1), clamped to [1, n], linearly interpolated. 0 for
/// an empty sample, the single value for n == 1.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(const std::vector<double>& values);

/// True when `samples` values leave at least ten beyond the p-th
/// percentile, i.e. samples * (100 - p) / 100 >= 10 — the rule for naming
/// a percentile (p50 needs 20 samples, p90 100, p95 200).
[[nodiscard]] bool percentile_nameable(std::size_t samples, double p);

/// The highest of p50, p75, p90, p95, p99 and p99.9 that `samples` may
/// name, or 0 when even the median may not be named.
[[nodiscard]] double highest_nameable_percentile(std::size_t samples);

[[nodiscard]] double sum(const std::vector<double>& values);

}  // namespace perfbench
