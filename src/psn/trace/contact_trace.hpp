// ContactTrace: an immutable, time-sorted collection of contacts over a
// fixed node population and observation window [0, t_max).
//
// This is the substrate every other psn subsystem consumes: the space-time
// graph discretizes it, the forwarding simulator replays it, and the
// statistics module summarizes it.

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "psn/trace/contact.hpp"

namespace psn::trace {

/// Immutable contact trace.
class ContactTrace {
 public:
  ContactTrace() = default;

  /// Builds a trace. Contacts are sorted into canonical order; endpoints are
  /// validated against `num_nodes` and ordered a < b; contacts are clipped
  /// to [0, t_max) and contacts fully outside the window are dropped.
  /// Throws std::invalid_argument on a bad endpoint, a contact that ends
  /// before it starts or has a NaN time, or a t_max that is not positive
  /// and finite.
  ContactTrace(std::vector<Contact> contacts, NodeId num_nodes,
               Seconds t_max);

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] Seconds t_max() const noexcept { return t_max_; }
  [[nodiscard]] std::size_t size() const noexcept { return contacts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return contacts_.empty(); }

  [[nodiscard]] std::span<const Contact> contacts() const noexcept {
    return contacts_;
  }

  [[nodiscard]] const Contact& operator[](std::size_t i) const noexcept {
    return contacts_[i];
  }

  /// Number of contacts each node participates in (Fig. 7's quantity).
  [[nodiscard]] std::vector<std::size_t> contact_counts() const;

  /// Per-node contact rate: contacts per second over the window.
  [[nodiscard]] std::vector<double> contact_rates() const;

  /// A new trace restricted to the window [lo, hi), with times shifted so
  /// the new trace starts at 0 (used to cut 3-hour analysis windows).
  [[nodiscard]] ContactTrace window(Seconds lo, Seconds hi) const;

  /// Sum of per-contact durations.
  [[nodiscard]] Seconds total_contact_time() const noexcept;

  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Contact> contacts_;
  NodeId num_nodes_ = 0;
  Seconds t_max_ = 0.0;
};

}  // namespace psn::trace
