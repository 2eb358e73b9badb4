// Greedy Online (paper §6.1): forward to a peer that has had more total
// contacts since the start of the simulation than the holder. Destination
// unaware, online (past knowledge only) — the practical counterpart of
// Greedy Total.

#pragma once

#include <vector>

#include "psn/forward/contact_history.hpp"

namespace psn::forward {

/// Adopted, it answers per-node contact totals from the scenario's
/// ContactHistoryIndex.
class GreedyOnlineForwarding final : public ContactHistoryForwarding {
 public:
  [[nodiscard]] std::string name() const override { return "Greedy Online"; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

 private:
  std::vector<std::uint32_t> contacts_so_far_;
};

}  // namespace psn::forward
