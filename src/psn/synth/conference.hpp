// Conference trace generator: the one implementation of the synthetic
// family that stands in for the paper's (non-redistributable) iMote
// traces.
//
// Each node i gets an activity weight w_i; the pair (i, j) experiences
// contact opportunities as a renewal process with rate proportional to
// w_i * w_j. With uniform weights the induced per-node contact rates are
// approximately Uniform(0, max) — exactly the empirical shape the paper
// reports in Fig. 7 and builds its in/out analysis on (§5.2). Contact
// durations are exponential; start times are quantized to a Bluetooth
// inquiry-scan interval (120 s in the paper's hardware, §3). On top of
// that the generator layers the two structural features of the paper's
// datasets (§3):
//  * a class of stationary nodes (20 iMotes placed around the venue) whose
//    activity differs from the mobile participants', and
//  * time-of-day rate modulation — sessions vs. coffee breaks and the
//    end-of-window drop-off visible in Fig. 1 (5:30-6:00 pm decline).
//
// Modulation is applied by thinning: opportunities are generated at the
// peak rate and accepted with probability modulation(t)/max_modulation.
// A flat population (stationary_nodes = 0, exponential gaps, no
// modulation, scan_interval = 0) is the plain heterogeneous
// pairwise-Poisson trace.

#pragma once

#include <cstdint>
#include <vector>

#include "psn/trace/contact_trace.hpp"

namespace psn::util {
class Rng;
}  // namespace psn::util

namespace psn::synth {

/// Distribution of inter-contact gaps within a pair. The paper (citing
/// Hui et al. [8]) notes that inter-contact time tails in these traces
/// approximately follow a power law; heavy-tailed gaps are what give the
/// optimal path duration its long tail (Fig. 4a) — a renewal process with
/// the same mean but exponential gaps mixes far too fast.
enum class GapModel {
  exponential,  ///< memoryless (the analytic model's assumption, §5.1).
  pareto,       ///< power-law tails (empirical traces, Fig. 4a regime).
};

/// A piecewise-constant rate multiplier segment, [start, end) -> factor.
struct ModulationSegment {
  trace::Seconds start = 0.0;
  trace::Seconds end = 0.0;
  double factor = 1.0;
};

struct ConferenceConfig {
  trace::NodeId mobile_nodes = 78;      ///< carried by participants (§3).
  trace::NodeId stationary_nodes = 20;  ///< placed around the venue (§3).
  trace::Seconds t_max = 3.0 * 3600.0;  ///< Paper: 3-hour windows.
  /// Population-mean per-node contact rate at modulation factor 1.
  double mean_node_rate = 0.07;
  /// Multiplier on stationary nodes' activity weights. Stationary iMotes
  /// sit in high-traffic spots, so they tend to log more contacts.
  double stationary_weight_boost = 1.5;
  /// Mean contact duration. With the Fig. 7-calibrated rates (~0.02
  /// contacts/s/node) this keeps the instantaneous contact graph sparse —
  /// around one concurrent contact per node — as in Bluetooth sightings.
  double mean_contact_duration = 60.0;
  /// iMote inquiry scan period (§3). If > 0, contact start times are
  /// rounded down to multiples of it on a per-pair phase.
  double scan_interval = 120.0;
  /// Inter-contact gap model; the empirical traces have power-law tails
  /// (paper §5.2 citing [8]), which is what stretches Fig. 4a's T1 tail.
  GapModel gaps = GapModel::pareto;
  /// Tail exponent for GapModel::pareto; the pair's mean gap (and hence
  /// its rate) is preserved, only the shape changes. Must be > 1.
  double pareto_gap_shape = 1.6;
  /// Session/break structure; empty means a flat rate. Factors > 1 model
  /// coffee breaks, < 1 model sessions or end-of-day decline.
  std::vector<ModulationSegment> modulation;
  std::uint64_t seed = 1;

  [[nodiscard]] trace::NodeId total_nodes() const noexcept {
    return mobile_nodes + stationary_nodes;
  }
};

/// Result of a generation run: the trace plus the ground-truth weights and
/// per-node aggregate rates (useful for calibration tests).
struct GeneratedTrace {
  trace::ContactTrace trace;
  std::vector<double> node_weights;
  std::vector<double> node_rates;  ///< ground-truth rate per node.
};

/// The default modulation used by DatasetFactory: mild session/break waves
/// with a final-half-hour decline, echoing Fig. 1's texture.
[[nodiscard]] std::vector<ModulationSegment> default_conference_modulation(
    trace::Seconds t_max);

/// The rate multiplier in effect at time t (1.0 outside every segment).
[[nodiscard]] double modulation_at(const std::vector<ModulationSegment>& segs,
                                   trace::Seconds t);

/// The largest factor across segments (>= 1.0) — the thinning envelope.
[[nodiscard]] double max_modulation(const std::vector<ModulationSegment>& segs);

/// Draws one inter-contact gap with mean 1/rate under the given gap model.
[[nodiscard]] double draw_intercontact_gap(GapModel model,
                                           double pareto_shape, double rate,
                                           util::Rng& rng);

/// The family's first step, shared by both generators: checks `config`
/// and draws the per-node activity weights from `rng` — Uniform(0, 1),
/// times stationary_weight_boost for stationary nodes, floored at 1e-9.
/// Throws std::invalid_argument for fewer than 2 nodes, a window or a
/// mean_node_rate that is not positive and finite, or Pareto gaps with
/// pareto_gap_shape <= 1 (whose gap scale would be <= 0, so no gap would
/// advance time).
[[nodiscard]] std::vector<double> draw_node_weights(
    const ConferenceConfig& config, util::Rng& rng);

/// Generates a conference trace. Nodes [0, mobile_nodes) are mobile and
/// [mobile_nodes, total) are stationary. Deterministic in `config.seed`.
[[nodiscard]] GeneratedTrace generate_conference(
    const ConferenceConfig& config);

}  // namespace psn::synth
