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

/// Per-node rate summary plus the derived in/out classification.
struct RateClassification {
  std::vector<double> rates;        ///< contacts per second, per node.
  double median_rate = 0.0;         ///< split point.
  std::vector<RateClass> classes;   ///< per node.

  [[nodiscard]] bool is_in(NodeId n) const noexcept {
    return classes[n] == RateClass::in_node;
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
/// Pairs that never meet get +infinity; pairs meeting once get the span
/// from their only meeting to t_max (an optimistic lower bound, as in MEED
/// implementations). Used by the Dynamic Programming forwarding oracle.
[[nodiscard]] std::vector<double> mean_intercontact_matrix(
    const ContactTrace& trace);

}  // namespace psn::trace
