// Binary Spray and Wait (Spyropoulos, Psounis & Raghavendra, WDTN'05; the
// paper cites it as related work [17]). The source starts with L copies;
// on contact, a node holding more than one copy hands half of them over
// (spray phase); nodes holding a single copy wait for the destination
// (wait phase). Bounded replication cost with near-epidemic delay in dense
// settings — a useful cost ablation against Epidemic.

#pragma once

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

class SprayAndWaitForwarding final : public ForwardingAlgorithm {
 public:
  explicit SprayAndWaitForwarding(std::uint32_t copies = 8)
      : copies_(copies) {}

  [[nodiscard]] std::string name() const override { return "Spray+Wait"; }
  [[nodiscard]] bool replicates() const override { return true; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }
  [[nodiscard]] std::uint32_t initial_copies() const override {
    return copies_;
  }

  [[nodiscard]] bool should_forward(NodeId, NodeId, NodeId, Step,
                                    std::uint32_t holder_copies) override {
    return holder_copies > 1;  // spray while budget remains, then wait.
  }

 private:
  std::uint32_t copies_;
};

}  // namespace psn::forward
