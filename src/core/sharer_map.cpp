#include "src/core/sharer_map.hpp"

#include <bit>

#include "src/common/nc_assert.hpp"

namespace netcache::core {

SharerMap::SharerMap(int nodes, std::size_t blocks_hint)
    : nodes_(nodes), words_((nodes + 63) / 64) {
  NC_ASSERT(nodes > 0, "empty sharer map");
  slots_.reserve(blocks_hint);
}

void SharerMap::set_resident(Addr block_base, NodeId node, bool resident) {
  const std::size_t word = static_cast<std::size_t>(node) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (node & 63);
  auto it = slots_.find(block_base);
  if (resident) {
    if (it == slots_.end()) {
      std::uint32_t slot;
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(pool_.size() /
                                          static_cast<std::size_t>(words_));
        pool_.resize(pool_.size() + static_cast<std::size_t>(words_), 0);
      }
      it = slots_.emplace(block_base, slot).first;
      ++live_;
      if (live_ > peak_) peak_ = live_;
    }
    pool_[static_cast<std::size_t>(it->second) *
              static_cast<std::size_t>(words_) +
          word] |= bit;
  } else {
    if (it == slots_.end()) return;
    std::uint64_t* w = &pool_[static_cast<std::size_t>(it->second) *
                              static_cast<std::size_t>(words_)];
    w[word] &= ~bit;
    bool any = false;
    for (int i = 0; i < words_; ++i) any |= w[i] != 0;
    if (!any) {
      free_slots_.push_back(it->second);
      slots_.erase(it);
      --live_;
    }
  }
}

const std::uint64_t* SharerMap::bitmap(Addr block_base) const {
  auto it = slots_.find(block_base);
  if (it == slots_.end()) return nullptr;
  return &pool_[static_cast<std::size_t>(it->second) *
                static_cast<std::size_t>(words_)];
}

bool SharerMap::contains(Addr block_base, NodeId node) const {
  const std::uint64_t* w = bitmap(block_base);
  return w != nullptr &&
         ((w[static_cast<std::size_t>(node) >> 6] >> (node & 63)) & 1) != 0;
}

const std::vector<NodeId>& SharerMap::snapshot(Addr block_base) {
  snapshot_.clear();
  const std::uint64_t* w = bitmap(block_base);
  if (w == nullptr) return snapshot_;
  for (int i = 0; i < words_; ++i) {
    for (std::uint64_t bits = w[i]; bits != 0; bits &= bits - 1) {
      snapshot_.push_back(
          static_cast<NodeId>(i * 64 + std::countr_zero(bits)));
    }
  }
  return snapshot_;
}

}  // namespace netcache::core
