// Greedy (paper §6.1): forward to a peer that has contacted the destination
// more times since the start of the simulation than the holder has.
// Destination-aware, complete (online) contact-count history — contrast
// with FRESH, which uses only the most recent encounter.

#pragma once

#include <vector>

#include "psn/forward/contact_history.hpp"

namespace psn::forward {

/// Adopted, it answers pairwise contact counts from the scenario's
/// ContactHistoryIndex.
class GreedyForwarding final : public ContactHistoryForwarding {
 public:
  [[nodiscard]] std::string name() const override { return "Greedy"; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

 private:
  /// met_count_[x * n + y]: contacts between x and y so far.
  std::vector<std::uint32_t> met_count_;
  NodeId n_ = 0;
};

}  // namespace psn::forward
