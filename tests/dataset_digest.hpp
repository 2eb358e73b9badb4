// FNV-1a-64 digests for the suites that pin exact bytes: a dataset's
// trace (engine_test and scale_test pin every registered dataset with it,
// so a generator change that moves one contact time by one ulp fails
// there), and the word mixer that scale_test's graph and PRoPHET digests
// and path_sweep_test's enumeration digests share.

#pragma once

#include <bit>
#include <cstdint>

#include "psn/core/dataset.hpp"

namespace psn {

/// FNV-1a-64's offset basis: the digest of no input.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// Folds `v` into the FNV-1a-64 digest `h` as a little-endian 64-bit
/// word, so a digest is the same on any host.
inline void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i, v >>= 8)
    h = (h ^ (v & 0xFFu)) * 1099511628211ull;
}

/// Mixes num_nodes, t_max's bits, the contact count, and each contact's
/// a, b, start bits and end bits.
inline std::uint64_t dataset_digest(const core::Dataset& dataset) {
  std::uint64_t h = kFnv1aBasis;
  const auto mix = [&h](std::uint64_t v) { fnv1a_mix(h, v); };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const trace::ContactTrace& trace = dataset.trace;
  mix(trace.num_nodes());
  mix(bits(trace.t_max()));
  mix(trace.size());
  for (const trace::Contact& c : trace.contacts()) {
    mix(c.a);
    mix(c.b);
    mix(bits(c.start));
    mix(bits(c.end));
  }
  return h;
}

}  // namespace psn
