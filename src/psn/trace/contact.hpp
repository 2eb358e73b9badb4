// Contact records: the atomic observation of a pocket switched network.
//
// A contact is an interval during which two devices could exchange data
// (paper §3: iMote inquiry scans every 120 s; a response is logged with the
// responder's address plus start and end time). Contacts are symmetric: if
// A sees B then A and B can exchange data in both directions (§3).

#pragma once

#include <cstdint>
#include <string>

namespace psn::trace {

/// Node identifier; nodes of a trace are 0..num_nodes-1.
using NodeId = std::uint32_t;

/// Continuous time in seconds from the start of the observation window.
using Seconds = double;

/// One contact interval between two nodes. Kept normalized: a < b.
struct Contact {
  NodeId a = 0;
  NodeId b = 0;
  Seconds start = 0.0;
  Seconds end = 0.0;

  /// Normalizes endpoint order (a < b). Throws std::invalid_argument
  /// unless a != b and end >= start (so neither time may be NaN).
  [[nodiscard]] static Contact make(NodeId x, NodeId y, Seconds start,
                                    Seconds end);

  [[nodiscard]] Seconds duration() const noexcept { return end - start; }

  /// True if the contact overlaps the half-open interval [lo, hi).
  [[nodiscard]] bool overlaps(Seconds lo, Seconds hi) const noexcept {
    return start < hi && end > lo;
  }

  /// True if `node` is one of the endpoints.
  [[nodiscard]] bool involves(NodeId node) const noexcept {
    return a == node || b == node;
  }

  /// The endpoint that is not `node`. Precondition: involves(node).
  [[nodiscard]] NodeId peer(NodeId node) const noexcept {
    return node == a ? b : a;
  }

  [[nodiscard]] bool operator==(const Contact&) const noexcept = default;

  [[nodiscard]] std::string to_string() const;
};

/// Orders by start time, then end, then endpoints; the canonical trace order.
[[nodiscard]] bool contact_before(const Contact& lhs,
                                  const Contact& rhs) noexcept;

}  // namespace psn::trace
