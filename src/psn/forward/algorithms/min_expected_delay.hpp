// Dynamic Programming / Minimum Expected Delay (paper §6.1, after Jain,
// Fall & Patra's MED and Jones et al.'s MEED): compute the expected delay
// between every pair of nodes from their mean inter-contact times over the
// whole trace (past and future knowledge), run all-pairs shortest path on
// that metric, and forward when the peer is strictly closer (in expected
// delay) to the destination than the holder is.

#pragma once

#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

class MinExpectedDelayForwarding final : public ForwardingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override {
    return "Dynamic Programming";
  }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

  /// Expected-delay distance between two nodes (for tests/inspection).
  [[nodiscard]] double distance(NodeId from, NodeId to) const noexcept {
    return dist_[static_cast<std::size_t>(from) * n_ + to];
  }

 private:
  std::vector<double> dist_;  ///< all-pairs expected delay, row-major.
  NodeId n_ = 0;
};

}  // namespace psn::forward
