// Descriptive statistics over contact traces.
//
// These implement the measurement side of the paper:
//  * Fig. 1  — total contacts over all nodes in 1-minute bins;
//  * Fig. 7  — CDF of per-node contact counts (≈ uniform on (0, max));
//  * §5.2    — per-node contact rates and the in/out split at the median.

#pragma once

#include <cstddef>
#include <vector>

#include "psn/stats/cdf.hpp"
#include "psn/stats/histogram.hpp"
#include "psn/trace/contact_trace.hpp"

namespace psn::trace {

/// Whether a node's contact rate is above ('in') or below ('out') the
/// population median (paper §5.2: "The in set are those nodes with contact
/// rates greater than the median rate").
enum class RateClass { in_node, out_node };

/// The four classes of a (source, destination) pair by the rate classes of
/// its ends (§5.2), indexed 0-3 in this order wherever results are split
/// by pair (Fig. 8, Fig. 13, the model's hypothesis table).
enum class Quadrant : std::size_t { in_in, in_out, out_in, out_out };

/// "in-in", "in-out", "out-in" or "out-out".
[[nodiscard]] const char* quadrant_name(Quadrant q) noexcept;

/// The quadrant of a pair whose source and destination are (or are not)
/// in-nodes.
[[nodiscard]] constexpr Quadrant quadrant_of(bool source_in,
                                             bool destination_in) noexcept {
  return source_in ? (destination_in ? Quadrant::in_in : Quadrant::in_out)
                   : (destination_in ? Quadrant::out_in : Quadrant::out_out);
}

/// Per-node rate summary plus the derived in/out classification.
struct RateClassification {
  std::vector<double> rates;        ///< contacts per second, per node.
  double median_rate = 0.0;         ///< split point.
  std::vector<RateClass> classes;   ///< per node.

  [[nodiscard]] bool is_in(NodeId n) const noexcept {
    return classes[n] == RateClass::in_node;
  }
  /// The quadrant of the pair (source, destination).
  [[nodiscard]] Quadrant quadrant(NodeId source,
                                  NodeId destination) const noexcept {
    return quadrant_of(is_in(source), is_in(destination));
  }
};

/// Computes per-node rates and splits the population at the median rate.
[[nodiscard]] RateClassification classify_rates(const ContactTrace& trace);

/// Total contacts (over all nodes) per time bin; Fig. 1's series. A contact
/// is counted in the bin containing its start time.
[[nodiscard]] stats::Histogram contacts_per_bin(const ContactTrace& trace,
                                                Seconds bin_width);

/// CDF of per-node total contact counts; Fig. 7's series.
[[nodiscard]] stats::EmpiricalCdf contact_count_cdf(const ContactTrace& trace);

/// Inter-contact times aggregated over every pair with >= 2 contacts: the
/// gaps between the end of one contact and the start of the next between
/// the same two nodes.
[[nodiscard]] std::vector<Seconds> all_inter_contact_times(
    const ContactTrace& trace);

/// Mean inter-contact time matrix (num_nodes x num_nodes, row-major).
/// Pairs that never meet get +infinity; pairs meeting once get the window
/// length t_max (an optimistic stand-in for the gap they never showed, as
/// in MEED implementations). Used by the Dynamic Programming forwarding
/// oracle.
[[nodiscard]] std::vector<double> mean_intercontact_matrix(
    const ContactTrace& trace);

}  // namespace psn::trace
