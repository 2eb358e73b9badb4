// Seeded randomness of the benchmark's inputs: SplitMix64 seed derivation
// and the open-loop Poisson arrival schedule. Both are written out here
// (not taken from <random> distributions, whose algorithms differ between
// standard libraries) so equal seeds give equal inputs everywhere.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One SplitMix64 step of `x`: a well-mixed 64-bit function of its input.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// The i-th derived seed of `seed` under `stream` (independent streams
/// for independent uses of one workload seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t i = 0) noexcept;

/// Small deterministic generator (SplitMix64 sequence) for input choices.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() noexcept;
  /// Uniform index in [0, n), n >= 1.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

 private:
  std::uint64_t state_;
};

/// Send offsets (seconds from the start of the run) of `count` requests
/// arriving as a Poisson process conditioned on exactly `count` arrivals in
/// [0, window_seconds): sorted uniform offsets drawn from `seed`. Fixing
/// the count fixes the offered load of a run, so only the spacing varies
/// with the seed. Non-decreasing; identical for identical arguments.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   std::size_t count,
                                                   double window_seconds);

}  // namespace perfbench
