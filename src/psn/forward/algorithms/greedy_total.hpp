// Greedy Total (paper §6.1): forward to a peer with more total contacts —
// over the whole trace, past and future — than the holder. Destination
// unaware; an oracle (it knows future contact counts). The paper finds it
// particularly strong when the source is an 'out' node, because moving the
// message toward high-rate nodes is exactly what triggers fast path
// explosion (§6.2.2).

#pragma once

#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

class GreedyTotalForwarding final : public ForwardingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "Greedy Total"; }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

 private:
  std::vector<std::size_t> total_contacts_;
};

}  // namespace psn::forward
