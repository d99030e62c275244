#include "src/cache/cache.hpp"

#include <bit>

#include "src/common/nc_assert.hpp"

namespace netcache::cache {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      block_shift_(std::countr_zero(
          static_cast<std::uint64_t>(config.block_bytes))),
      set_mask_(static_cast<Addr>(config.sets()) - 1),
      ways_(static_cast<std::size_t>(config.associativity)),
      lines_(static_cast<std::size_t>(config.sets()) * ways_, 0) {
  // Config::validate rejects these too, but direct Cache users bypass it.
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(config.block_bytes)),
            "block size must be a power of two");
  NC_ASSERT(config.sets() > 0, "cache must have at least one set");
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(config.sets())),
            "set count must be a power of two");
  if (ways_ > 1) stamps_.assign(lines_.size(), 0);
}

LineState Cache::state(Addr addr) const {
  const std::uint64_t* line = const_cast<Cache*>(this)->find(addr);
  return line ? state_of(*line) : LineState::kInvalid;
}

void Cache::set_state(Addr addr, LineState s) {
  // State changes of a present line never change residency; demoting a line
  // to kInvalid must go through invalidate() so the residency hook fires.
  NC_ASSERT(s != LineState::kInvalid, "set_state(kInvalid): use invalidate()");
  if (std::uint64_t* line = find(addr)) {
    *line = (*line & ~kStateMask) | static_cast<std::uint64_t>(s);
  }
}

std::optional<Eviction> Cache::insert(Addr addr, LineState state,
                                      Cycles now) {
  NC_ASSERT(state != LineState::kInvalid, "inserting an invalid line");
  const std::uint64_t word = ((addr >> block_shift_) << kStateBits) |
                            static_cast<std::uint64_t>(state);
  if (std::uint64_t* line = find(addr)) {  // refresh in place
    *line = word;
    if (!stamps_.empty()) stamps_[slot(line)] = now;
    return std::nullopt;
  }
  std::uint64_t* set = set_of(addr >> block_shift_);
  // Victim: the first invalid way, else the least recently used one (ties
  // go to the lowest way).
  std::size_t victim = 0;
  if (ways_ > 1) {
    const Cycles* stamp = &stamps_[slot(set)];
    for (std::size_t w = 0; w < ways_; ++w) {
      if (state_of(set[w]) == LineState::kInvalid) {
        victim = w;
        break;
      }
      if (stamp[w] < stamp[victim]) victim = w;
    }
    stamps_[slot(set) + victim] = now;
  }
  std::optional<Eviction> evicted;
  const std::uint64_t old = set[victim];
  if (state_of(old) != LineState::kInvalid) {
    evicted = Eviction{base_of(old), state_of(old)};
    ++evictions_;
    notify_residency(base_of(old), false);
  }
  set[victim] = word;
  notify_residency(base_of(word), true);
  return evicted;
}

LineState Cache::invalidate(Addr addr) {
  if (std::uint64_t* line = find(addr)) {
    const LineState prev = state_of(*line);
    *line &= ~kStateMask;
    notify_residency(base_of(*line), false);
    return prev;
  }
  return LineState::kInvalid;
}

void Cache::clear() {
  for (std::uint64_t& line : lines_) {
    if (state_of(line) != LineState::kInvalid) {
      notify_residency(base_of(line), false);
    }
    line &= ~kStateMask;
  }
}

}  // namespace netcache::cache
