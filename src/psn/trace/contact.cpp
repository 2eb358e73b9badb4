#include "psn/trace/contact.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace psn::trace {

Contact Contact::make(NodeId x, NodeId y, Seconds start, Seconds end) {
  if (x == y) throw std::invalid_argument("Contact: self-contact");
  // Negated so a NaN time fails too: every comparison with NaN is false.
  if (!(end >= start))
    throw std::invalid_argument("Contact: end before start or NaN time");
  if (x > y) std::swap(x, y);
  return Contact{x, y, start, end};
}

std::string Contact::to_string() const {
  std::ostringstream ss;
  ss << "Contact(" << a << " <-> " << b << ", [" << start << ", " << end
     << "))";
  return ss.str();
}

bool contact_before(const Contact& lhs, const Contact& rhs) noexcept {
  if (lhs.start != rhs.start) return lhs.start < rhs.start;
  if (lhs.end != rhs.end) return lhs.end < rhs.end;
  if (lhs.a != rhs.a) return lhs.a < rhs.a;
  return lhs.b < rhs.b;
}

}  // namespace psn::trace
