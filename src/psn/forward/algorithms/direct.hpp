// Direct delivery: the source holds the message until it meets the
// destination itself. The lower-bound baseline — zero forwarding cost, the
// worst delay/success any sane scheme can have. (Related-work extension;
// Spyropoulos et al. call this the degenerate single-copy scheme.)

#pragma once

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

class DirectDelivery final : public ForwardingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "Direct"; }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }

  [[nodiscard]] bool should_forward(NodeId, NodeId, NodeId, Step,
                                    std::uint32_t) override {
    return false;  // delivery to the destination is automatic.
  }
};

}  // namespace psn::forward
