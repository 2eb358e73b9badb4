// Dynamic set of node ids, stored as 64-bit words.
//
// The path enumerator attaches a membership set to every path so that the
// loop-freedom check (does this path already visit node x?) is O(1), and
// the forwarding simulator tracks per-message holder sets and epidemic
// component masks the same way. Capacity is chosen at construction; sets
// over populations of up to 128 nodes (the paper's datasets have at most
// 98) live entirely in an inline two-word buffer, so paper-scale runs are
// allocation-free. Larger populations spill to a heap word array, which is
// what lets the whole stack scale past the historical 128-node ceiling.
//
// Trailing zero words never affect equality or hashing, so sets built with
// different capacities compare by content alone, and for sets confined to
// the first 128 bits the hash is bit-compatible with the retired
// Bitset128Hash — legacy enumeration orders (and therefore legacy results)
// are preserved exactly.

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

namespace psn::util {

/// Value-type set over {0, ..., capacity-1}; grows on demand if a bit
/// beyond the construction capacity is set.
class NodeSet {
 public:
  /// Words held inline; 128 bits covers every paper-scale population.
  static constexpr std::uint32_t kInlineWords = 2;

  NodeSet() noexcept = default;

  /// An empty set sized for node ids in [0, capacity).
  explicit NodeSet(std::uint32_t capacity) { reserve_bit(capacity); }

  NodeSet(const NodeSet& o) { assign(o); }
  NodeSet(NodeSet&& o) noexcept { steal(std::move(o)); }
  NodeSet& operator=(const NodeSet& o) {
    if (this != &o) assign(o);
    return *this;
  }
  NodeSet& operator=(NodeSet&& o) noexcept {
    if (this != &o) steal(std::move(o));
    return *this;
  }

  /// Set containing exactly {bit}.
  [[nodiscard]] static NodeSet single(std::uint32_t bit) {
    NodeSet s;
    s.set(bit);
    return s;
  }

  /// Set sized for [0, capacity) containing exactly {bit}.
  [[nodiscard]] static NodeSet single(std::uint32_t capacity,
                                      std::uint32_t bit) {
    NodeSet s(capacity);
    s.set(bit);
    return s;
  }

  // In the inline branches below the word index is < num_words_ <=
  // kInlineWords; the power-of-two mask is a no-op that makes the bound
  // visible to the compiler (-Warray-bounds).
  void set(std::uint32_t bit) {
    const std::uint32_t w = bit >> 6;
    if (w >= num_words_) grow(w + 1);
    const std::uint64_t m = std::uint64_t{1} << (bit & 63);
    if (num_words_ <= kInlineWords)
      inline_[w & (kInlineWords - 1)] |= m;
    else
      heap_[w] |= m;
  }

  void reset(std::uint32_t bit) noexcept {
    const std::uint32_t w = bit >> 6;
    if (w >= num_words_) return;
    const std::uint64_t m = ~(std::uint64_t{1} << (bit & 63));
    if (num_words_ <= kInlineWords)
      inline_[w & (kInlineWords - 1)] &= m;
    else
      heap_[w] &= m;
  }

  [[nodiscard]] bool test(std::uint32_t bit) const noexcept {
    const std::uint32_t w = bit >> 6;
    if (w >= num_words_) return false;
    const std::uint64_t word_value = num_words_ <= kInlineWords
                                         ? inline_[w & (kInlineWords - 1)]
                                         : heap_[w];
    return (word_value >> (bit & 63)) & 1U;
  }

  /// Removes every member, keeping the backing storage. This is what lets
  /// reusable scratch (forward::SimulatorWorkspace) recycle holder sets and
  /// component masks without reallocating.
  void clear() noexcept {
    std::uint64_t* d = data();
    for (std::uint32_t i = 0; i < num_words_; ++i) d[i] = 0;
  }

  [[nodiscard]] bool empty() const noexcept {
    const std::uint64_t* d = data();
    for (std::uint32_t i = 0; i < num_words_; ++i)
      if (d[i] != 0) return false;
    return true;
  }

  /// Number of set bits.
  [[nodiscard]] unsigned count() const noexcept {
    const std::uint64_t* d = data();
    unsigned total = 0;
    for (std::uint32_t i = 0; i < num_words_; ++i)
      total += static_cast<unsigned>(std::popcount(d[i]));
    return total;
  }

  /// Words of backing storage (>= kInlineWords).
  [[nodiscard]] std::uint32_t num_words() const noexcept { return num_words_; }

  /// Word i of the set; 0 beyond the backing storage.
  [[nodiscard]] std::uint64_t word(std::uint32_t i) const noexcept {
    return i < num_words_ ? data()[i] : 0;
  }

  /// The backing words (num_words() of them), lowest node ids first.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {data(), num_words_};
  }

  /// Grows the backing storage to cover node ids in [0, capacity) without
  /// changing membership. The flood kernels pre-size their sets with this
  /// so subsequent writes never reallocate mid-loop.
  void ensure_capacity(std::uint32_t capacity) { reserve_bit(capacity); }

  NodeSet& operator|=(const NodeSet& o) {
    // Grow only as far as o's highest nonzero word.
    std::uint32_t need = o.num_words_;
    while (need > num_words_ && o.data()[need - 1] == 0) --need;
    if (need > num_words_) grow(need);
    std::uint64_t* d = data();
    const std::uint64_t* od = o.data();
    const std::uint32_t common = num_words_ < need ? num_words_ : need;
    for (std::uint32_t i = 0; i < common; ++i) d[i] |= od[i];
    return *this;
  }

  NodeSet& operator&=(const NodeSet& o) noexcept {
    std::uint64_t* d = data();
    for (std::uint32_t i = 0; i < num_words_; ++i) d[i] &= o.word(i);
    return *this;
  }

  [[nodiscard]] NodeSet operator|(const NodeSet& o) const {
    NodeSet r(*this);
    r |= o;
    return r;
  }

  [[nodiscard]] NodeSet operator&(const NodeSet& o) const {
    NodeSet r(*this);
    r &= o;
    return r;
  }

  /// |this & o| without allocating the intersection.
  [[nodiscard]] unsigned intersect_count(const NodeSet& o) const noexcept {
    const std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    const std::uint32_t n = num_words_ < o.num_words_ ? num_words_
                                                      : o.num_words_;
    unsigned total = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      total += static_cast<unsigned>(std::popcount(a[i] & b[i]));
    return total;
  }

  /// Content equality; backing capacity is irrelevant.
  [[nodiscard]] bool operator==(const NodeSet& o) const noexcept {
    const std::uint32_t n = num_words_ > o.num_words_ ? num_words_
                                                      : o.num_words_;
    for (std::uint32_t i = 0; i < n; ++i)
      if (word(i) != o.word(i)) return false;
    return true;
  }

  /// Calls f(bit) for every member, ascending.
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t* d = data();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      std::uint64_t w = d[i];
      while (w != 0) {
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
        f(i * 64 + bit);
        w &= w - 1;
      }
    }
  }

 private:
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return num_words_ <= kInlineWords ? inline_ : heap_.get();
  }
  [[nodiscard]] std::uint64_t* data() noexcept {
    return num_words_ <= kInlineWords ? inline_ : heap_.get();
  }

  /// Ensures at least ceil(capacity/64) words of (zeroed) storage.
  void reserve_bit(std::uint32_t capacity) {
    if (capacity > kInlineWords * 64) grow((capacity + 63) >> 6);
  }

  void grow(std::uint32_t words);
  void assign(const NodeSet& o);
  void steal(NodeSet&& o) noexcept;

  std::uint32_t num_words_ = kInlineWords;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;
};

/// Hash functor for unordered containers keyed by NodeSet. For sets
/// confined to the first 128 bits this reproduces the retired
/// Bitset128Hash exactly, keeping legacy enumeration orders intact;
/// trailing zero words are ignored so the hash agrees with operator==.
struct NodeSetHash {
  /// The hash of the set whose word i is words[i] (absent words are 0).
  /// Lets word arenas (the path enumerator's entry pools) hash a member
  /// span without building a NodeSet; equal sets hash equally whatever
  /// their word counts.
  [[nodiscard]] std::size_t operator()(
      std::span<const std::uint64_t> words) const noexcept {
    const auto word = [words](std::size_t i) -> std::uint64_t {
      return i < words.size() ? words[i] : 0;
    };
    // SplitMix-style mix of the first two words (the Bitset128 formula).
    std::uint64_t h = word(0) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    h += word(1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
    for (std::size_t i = 2; i < words.size(); ++i) {
      const std::uint64_t w = words[i];
      if (w == 0) continue;
      std::uint64_t z = w + 0x9e3779b97f4a7c15ULL * (i + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      h ^= z ^ (z >> 31);
    }
    return static_cast<std::size_t>(h);
  }

  [[nodiscard]] std::size_t operator()(const NodeSet& s) const noexcept {
    return (*this)(s.words());
  }
};

}  // namespace psn::util
