#include "psn/trace/contact_trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace psn::trace {

ContactTrace::ContactTrace(std::vector<Contact> contacts, NodeId num_nodes,
                           Seconds t_max)
    : num_nodes_(num_nodes), t_max_(t_max) {
  if (!(t_max > 0.0) || !std::isfinite(t_max))
    throw std::invalid_argument(
        "ContactTrace: t_max must be positive and finite");
  contacts_.reserve(contacts.size());
  for (Contact c : contacts) {
    if (c.a >= num_nodes || c.b >= num_nodes)
      throw std::invalid_argument("ContactTrace: node id out of range: " +
                                  c.to_string());
    if (c.a == c.b)
      throw std::invalid_argument("ContactTrace: self contact: " +
                                  c.to_string());
    // Contact::make's check, for aggregate-built contacts: a NaN time
    // would pass the window clip below and land in an arbitrary graph
    // step, a reversed one would count a negative duration.
    if (!(c.end >= c.start))
      throw std::invalid_argument(
          "ContactTrace: end before start or NaN time: " + c.to_string());
    // Contact::make normalizes; a hand-built contact may not, and the
    // space-time graph's build relies on a < b.
    if (c.a > c.b) std::swap(c.a, c.b);
    // Clip to the observation window; drop contacts fully outside it.
    if (c.end <= 0.0 || c.start >= t_max) continue;
    c.start = std::max(c.start, 0.0);
    c.end = std::min(c.end, t_max);
    contacts_.push_back(c);
  }
  std::sort(contacts_.begin(), contacts_.end(), contact_before);
}

std::vector<std::size_t> ContactTrace::contact_counts() const {
  std::vector<std::size_t> counts(num_nodes_, 0);
  for (const Contact& c : contacts_) {
    ++counts[c.a];
    ++counts[c.b];
  }
  return counts;
}

std::vector<double> ContactTrace::contact_rates() const {
  std::vector<double> rates(num_nodes_, 0.0);
  const auto counts = contact_counts();
  for (NodeId n = 0; n < num_nodes_; ++n)
    rates[n] = static_cast<double>(counts[n]) / t_max_;
  return rates;
}

ContactTrace ContactTrace::window(Seconds lo, Seconds hi) const {
  if (!(hi > lo))
    throw std::invalid_argument("ContactTrace::window: hi must exceed lo");
  std::vector<Contact> cut;
  for (const Contact& c : contacts_) {
    if (!c.overlaps(lo, hi)) continue;
    Contact shifted = c;
    shifted.start = std::max(c.start, lo) - lo;
    shifted.end = std::min(c.end, hi) - lo;
    cut.push_back(shifted);
  }
  return ContactTrace(std::move(cut), num_nodes_, hi - lo);
}

Seconds ContactTrace::total_contact_time() const noexcept {
  Seconds total = 0.0;
  for (const Contact& c : contacts_) total += c.duration();
  return total;
}

std::string ContactTrace::summary() const {
  std::ostringstream ss;
  ss << "ContactTrace{nodes=" << num_nodes_ << ", contacts=" << size()
     << ", t_max=" << t_max_ << "s}";
  return ss.str();
}

}  // namespace psn::trace
