// Dynamic set of node ids, stored as 64-bit words.
//
// The forwarding simulator tracks per-message holder sets and epidemic
// component masks this way. A set is one word vector, lowest node ids
// first: setting a bit past its end grows it, and reads past its end see
// zero words, so sets of different widths combine by content alone.
// clear() keeps the words, which is what lets reusable scratch
// (forward::SimulatorWorkspace, graph::StepComponentScratch) recycle sets
// without reallocating.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace psn::util {

/// Value-type set over node ids; grows on demand.
class NodeSet {
 public:
  void set(std::uint32_t bit) {
    const std::uint32_t w = bit >> 6;
    if (w >= words_.size()) words_.resize(std::size_t{w} + 1, 0);
    words_[w] |= std::uint64_t{1} << (bit & 63);
  }

  void reset(std::uint32_t bit) noexcept {
    const std::uint32_t w = bit >> 6;
    if (w < words_.size()) words_[w] &= ~(std::uint64_t{1} << (bit & 63));
  }

  [[nodiscard]] bool test(std::uint32_t bit) const noexcept {
    return (word(bit >> 6) >> (bit & 63)) & 1U;
  }

  /// Removes every member, keeping the words.
  void clear() noexcept { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  [[nodiscard]] unsigned count() const noexcept {
    unsigned total = 0;
    for (const std::uint64_t w : words_)
      total += static_cast<unsigned>(std::popcount(w));
    return total;
  }

  /// Words of storage.
  [[nodiscard]] std::uint32_t num_words() const noexcept {
    return static_cast<std::uint32_t>(words_.size());
  }

  /// Word i of the set; 0 beyond the storage.
  [[nodiscard]] std::uint64_t word(std::uint32_t i) const noexcept {
    return i < words_.size() ? words_[i] : 0;
  }

  /// Grows the storage to cover node ids in [0, capacity) without
  /// changing membership. The flood kernels pre-size their sets with this
  /// so subsequent writes never reallocate mid-loop.
  void ensure_capacity(std::uint32_t capacity) {
    const std::size_t need = (std::size_t{capacity} + 63) >> 6;
    if (need > words_.size()) words_.resize(need, 0);
  }

  NodeSet& operator|=(const NodeSet& o) {
    // Grow only as far as o's highest nonzero word.
    std::size_t need = o.words_.size();
    while (need > words_.size() && o.words_[need - 1] == 0) --need;
    if (need > words_.size()) words_.resize(need, 0);
    for (std::size_t i = 0; i < need; ++i) words_[i] |= o.words_[i];
    return *this;
  }

  /// |this & o| without building the intersection.
  [[nodiscard]] unsigned intersect_count(const NodeSet& o) const noexcept {
    const std::size_t n = std::min(words_.size(), o.words_.size());
    unsigned total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<unsigned>(std::popcount(words_[i] & o.words_[i]));
    return total;
  }

  /// Calls f(bit) for every member, ascending.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
        f(static_cast<std::uint32_t>(i) * 64 + bit);
        w &= w - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace psn::util
