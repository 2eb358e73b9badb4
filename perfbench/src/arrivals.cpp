#include "arrivals.hpp"

#include <algorithm>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t i) noexcept {
  return splitmix64(splitmix64(splitmix64(seed) ^ stream) + i);
}

std::uint64_t InputRng::next() noexcept {
  const std::uint64_t out = splitmix64(state_);
  state_ += 0x9e3779b97f4a7c15ull;
  return out;
}

double InputRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t InputRng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::vector<double> poisson_schedule(std::uint64_t seed, std::size_t count,
                                     double window_seconds) {
  InputRng rng(seed);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(rng.uniform() * window_seconds);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
