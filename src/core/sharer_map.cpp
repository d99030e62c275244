#include "src/core/sharer_map.hpp"

#include <algorithm>
#include <bit>

#include "src/common/nc_assert.hpp"

namespace netcache::core {

namespace {

bool any_set(const std::uint64_t* w, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

}  // namespace

SharerMap::SharerMap(int nodes, int block_bytes)
    : nodes_(nodes),
      words_(static_cast<std::size_t>(nodes + 63) / 64),
      block_shift_(std::countr_zero(static_cast<unsigned>(block_bytes))) {
  NC_ASSERT(nodes > 0, "empty sharer map");
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(block_bytes)),
            "block size must be a power of two");
}

void SharerMap::set_resident(Addr block_base, NodeId node, bool resident) {
  const std::size_t at = row(block_base);
  const std::size_t word = static_cast<std::size_t>(node) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (node & 63);
  if (resident) {
    if (at >= bits_.size()) {
      NC_ASSERT((block_base >> 47) == 0,
                "sharer map tracks shared (low-address) blocks only");
      std::size_t blocks = std::max<std::size_t>(64, table_blocks());
      while (blocks * words_ <= at) blocks *= 2;
      bits_.resize(blocks * words_, 0);
    }
    std::uint64_t* w = &bits_[at];
    if (!any_set(w, words_) && ++live_ > peak_) peak_ = live_;
    w[word] |= bit;
  } else {
    if (at >= bits_.size()) return;
    std::uint64_t* w = &bits_[at];
    if ((w[word] & bit) == 0) return;
    w[word] &= ~bit;
    if (!any_set(w, words_)) --live_;
  }
}

bool SharerMap::contains(Addr block_base, NodeId node) const {
  const std::size_t at =
      row(block_base) + (static_cast<std::size_t>(node) >> 6);
  return at < bits_.size() && ((bits_[at] >> (node & 63)) & 1) != 0;
}

const std::vector<NodeId>& SharerMap::snapshot(Addr block_base) {
  snapshot_.clear();
  const std::size_t at = row(block_base);
  if (at >= bits_.size()) return snapshot_;
  for (std::size_t i = 0; i < words_; ++i) {
    for (std::uint64_t bits = bits_[at + i]; bits != 0; bits &= bits - 1) {
      snapshot_.push_back(
          static_cast<NodeId>(i * 64 + std::countr_zero(bits)));
    }
  }
  return snapshot_;
}

}  // namespace netcache::core
