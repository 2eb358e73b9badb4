#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

Digest& Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ull;  // FNV-1a 64 prime.
  }
  return *this;
}

Digest& Digest::add(std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));  // little-endian.
  return add_bytes(bytes, sizeof bytes);
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  return add_bytes(text.data(), text.size());
}

std::string Digest::hex() const {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(state_));
  return out;
}

}  // namespace perfbench
