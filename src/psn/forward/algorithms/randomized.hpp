// Randomized single-copy forwarding: hand the message to an encountered
// peer with fixed probability. A destination-unaware, history-free control:
// in the path-explosion regime even this performs respectably, which is
// part of the paper's "algorithms look alike" story.

#pragma once

#include "psn/forward/algorithm.hpp"
#include "psn/util/rng.hpp"

namespace psn::forward {

class RandomizedForwarding final : public ForwardingAlgorithm {
 public:
  explicit RandomizedForwarding(double forward_probability = 0.5,
                                std::uint64_t seed = 7)
      : probability_(forward_probability), seed_(seed), rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "Random"; }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }

  void prepare(const graph::SpaceTimeGraph& /*graph*/,
               const trace::ContactTrace& /*trace*/) override {
    rng_ = util::Rng(seed_);
  }

  [[nodiscard]] bool should_forward(NodeId, NodeId, NodeId, Step,
                                    std::uint32_t) override {
    return rng_.bernoulli(probability_);
  }

 private:
  double probability_;
  std::uint64_t seed_;
  util::Rng rng_;
};

}  // namespace psn::forward
