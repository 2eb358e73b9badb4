// Metropolis-scale trace generator (the metro_16k / megacity_65k tiers).
//
// The conference generator iterates every node pair, which is fine at 98
// nodes and already 2 million pairs at 2048 — at 65 536 nodes it would be
// 2.1 *billion* pairs, almost all of which never meet. This generator
// produces the *same family* of traces (pairwise-Poisson opportunities
// with rate proportional to w_i * w_j, thinned by a time-of-day
// modulation, scan-quantized starts, exponential durations) in
// O(#contacts) instead of O(N^2), which is what makes the new scale
// tiers feasible at all:
//
//  * Superposition. With exponential (memoryless) gaps, the union of all
//    per-pair Poisson processes at peak modulation is one global Poisson
//    process with rate Lambda = scale * peak * (S^2 - Q) / 2, where
//    S = sum w_i and Q = sum w_i^2. Events are generated globally and
//    each is attributed to a pair with probability proportional to
//    w_i * w_j — sampled as two independent weight-proportional draws
//    with i == j rejected, which gives an unordered pair {i, j} exactly
//    probability 2 w_i w_j / (S^2 - Q) = lambda_ij / Lambda.
//  * Time sharding. A Poisson process restricted to disjoint time slices
//    is independent across slices (memorylessness), so the window is cut
//    into shards generated concurrently on a util::ParallelFor, each from
//    its own SplitMix64-derived stream. Shard geometry and streams are a
//    function of the config alone — never of the executor — so any
//    executor (including the serial reference) produces the identical
//    trace, asserted by synth_test.
//  * Per-pair scan phases without per-pair state. The conference
//    generator draws a scan phase per pair; here the phase is a stateless
//    hash of (seed, i, j), deterministic and O(1), so quantization still
//    avoids a global sighting grid.
//
// The price of superposition is the gap model: only exponential gaps are
// memoryless, so this generator rejects any other GapModel. The scale
// tiers (metro_16k, megacity_65k, and the conference tiers they extend)
// use exponential gaps for exactly this reason.

#pragma once

#include "psn/synth/conference.hpp"
#include "psn/util/parallel.hpp"

namespace psn::synth {

/// Generates a metropolis trace, sharding event generation over
/// `parallel`. Takes the conference generator's config with the same
/// field semantics (nodes [0, mobile_nodes) are mobile, the rest are
/// stationary with boosted weights) and the same checks; it also throws
/// std::invalid_argument unless `config.gaps` is exponential (see file
/// comment), `parallel` is set and the weights' pair mass is finite (a
/// NaN or huge stationary_weight_boost overflows it). Deterministic in
/// `config` alone: every executor produces the identical trace.
[[nodiscard]] GeneratedTrace generate_metropolis(
    const ConferenceConfig& config, const util::ParallelFor& parallel);

/// Serial convenience overload (the reference executor).
[[nodiscard]] GeneratedTrace generate_metropolis(
    const ConferenceConfig& config);

}  // namespace psn::synth
