// Deterministic random number utilities.
//
// All stochastic components in psn (trace generators, workload generators,
// simulators) draw their randomness through Rng so that every experiment is
// reproducible from a single 64-bit seed. Rng wraps a SplitMix64-seeded
// xoshiro256** engine: tiny state and excellent statistical quality.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace psn::util {

/// SplitMix64 step. Used both for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// A small, fast, deterministic random engine (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// handed to <random> distributions, but the common draws (uniform,
/// exponential, Bernoulli, Pareto) are provided as members to keep results
/// identical across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Exponentially distributed value with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Pareto(x_m, alpha) draw; heavy-tailed inter-contact times.
  [[nodiscard]] double pareto(double scale, double shape) noexcept;

  /// Fisher-Yates shuffle of a vector, driven by this engine.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace psn::util
