// Output digest: a 64-bit FNV-1a hash over typed fields, used to compare
// a fast-path result with its oracle recomputation bit for bit. Doubles
// hash their bit pattern (so -0.0 != 0.0 and NaN payloads count), strings
// hash their length first (so "ab"+"c" != "a"+"bc").

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class Digest {
 public:
  Digest& add_bytes(const void* data, std::size_t size);
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  Digest& add(std::string_view text);

  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }
  /// Sixteen lowercase hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis.
};

}  // namespace perfbench
