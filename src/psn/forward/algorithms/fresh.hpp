// FRESH (Dubois-Ferriere, Grossglauser & Vetterli, MobiHoc'03):
// forward to a peer that has met the destination more recently than the
// holder has. Destination-aware, single-hop metric, recent history only
// (the single most recent encounter time).

#pragma once

#include <vector>

#include "psn/forward/contact_history.hpp"

namespace psn::forward {

/// Adopted, it answers from the scenario's ContactHistoryIndex
/// (bit-identical to the online table) and skips the O(n²) per-run table.
class FreshForwarding final : public ContactHistoryForwarding {
 public:
  [[nodiscard]] std::string name() const override { return "FRESH"; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

 private:
  /// last_met_[x * n + y]: latest step x and y were in contact, or -1.
  std::vector<std::int64_t> last_met_;
  NodeId n_ = 0;
};

}  // namespace psn::forward
