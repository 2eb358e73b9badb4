#include "psn/util/node_set.hpp"

#include <algorithm>

namespace psn::util {

void NodeSet::grow(std::uint32_t words) {
  if (words <= num_words_) return;
  auto fresh = std::make_unique<std::uint64_t[]>(words);  // value-initialized
  std::copy_n(data(), num_words_, fresh.get());
  heap_ = std::move(fresh);
  num_words_ = words;
}

void NodeSet::assign(const NodeSet& o) {
  if (o.num_words_ <= kInlineWords) {
    heap_.reset();
    std::copy_n(o.inline_, kInlineWords, inline_);
  } else {
    if (num_words_ != o.num_words_)
      heap_ = std::make_unique<std::uint64_t[]>(o.num_words_);
    std::copy_n(o.heap_.get(), o.num_words_, heap_.get());
  }
  num_words_ = o.num_words_;
}

void NodeSet::steal(NodeSet&& o) noexcept {
  num_words_ = o.num_words_;
  std::copy_n(o.inline_, kInlineWords, inline_);
  heap_ = std::move(o.heap_);
  // Leave the source valid and empty.
  o.num_words_ = kInlineWords;
  o.inline_[0] = o.inline_[1] = 0;
}

}  // namespace psn::util
