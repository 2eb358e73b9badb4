// Datasets: named contact traces playing the role of the paper's four
// 3-hour windows (Infocom'06 9-12 / 3-6, CoNEXT'06 9-12 / 3-6) plus a
// random-waypoint control. All are synthetic (see DESIGN.md §2 for the
// substitution rationale) and fully deterministic in their seeds.

#pragma once

#include <string>
#include <vector>

#include "psn/synth/conference.hpp"
#include "psn/trace/contact_trace.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::core {

/// A named trace plus its derived rate classification.
struct Dataset {
  std::string name;
  trace::ContactTrace trace;
  trace::RateClassification rates;
  /// Messages are generated only during [0, message_horizon) so every
  /// message has at least an hour to be delivered (paper §3).
  trace::Seconds message_horizon = 2.0 * 3600.0;
};

/// A generated trace as a named dataset: the trace and its rate
/// classification.
[[nodiscard]] Dataset make_dataset(std::string name,
                                   synth::GeneratedTrace generated);

/// Factory for the standard experiment datasets.
class DatasetFactory {
 public:
  /// The four conference windows the paper analyzes. Distinct seeds give
  /// each window its own population weights and contact realization;
  /// density parameters echo Fig. 1 (roughly 200-400 contacts/minute
  /// across ~100 nodes at baseline).
  [[nodiscard]] static std::vector<Dataset> paper_datasets();

  /// One window by index (0..3) without building the others.
  [[nodiscard]] static Dataset paper_dataset(std::size_t index);

  /// A random-waypoint mobility dataset (related-work control).
  [[nodiscard]] static Dataset random_waypoint_dataset();
};

}  // namespace psn::core
