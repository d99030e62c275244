#include "src/cache/cache.hpp"

#include <bit>

#include "src/common/nc_assert.hpp"

namespace netcache::cache {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      sets_(config.sets()),
      block_shift_(std::countr_zero(
          static_cast<std::uint64_t>(config.block_bytes))),
      lines_(static_cast<std::size_t>(sets_) * config.associativity) {
  // Config::validate rejects these too, but direct Cache users bypass it.
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(config.block_bytes)),
            "block size must be a power of two");
  NC_ASSERT(sets_ > 0, "cache must have at least one set");
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(sets_)),
            "set count must be a power of two");
}

std::size_t Cache::set_index(Addr addr) const {
  return static_cast<std::size_t>((addr >> block_shift_) &
                                  static_cast<Addr>(sets_ - 1));
}

Cache::Line* Cache::find(Addr addr) {
  Addr base = block_base(addr, config_.block_bytes);
  std::size_t s = set_index(addr);
  for (int w = 0; w < config_.associativity; ++w) {
    Line& line = lines_[s * config_.associativity + w];
    if (line.state != LineState::kInvalid && line.tag == base) return &line;
  }
  return nullptr;
}

const Cache::Line* Cache::find(Addr addr) const {
  return const_cast<Cache*>(this)->find(addr);
}

bool Cache::probe(Addr addr, Cycles now) {
  if (Line* line = find(addr)) {
    line->last_use = now;
    return true;
  }
  return false;
}

bool Cache::contains(Addr addr) const { return find(addr) != nullptr; }

LineState Cache::state(Addr addr) const {
  const Line* line = find(addr);
  return line ? line->state : LineState::kInvalid;
}

void Cache::set_state(Addr addr, LineState s) {
  // State changes of a present line never change residency; demoting a line
  // to kInvalid must go through invalidate() so the residency hook fires.
  NC_ASSERT(s != LineState::kInvalid, "set_state(kInvalid): use invalidate()");
  if (Line* line = find(addr)) line->state = s;
}

std::optional<Eviction> Cache::insert(Addr addr, LineState state,
                                      Cycles now) {
  NC_ASSERT(state != LineState::kInvalid, "inserting an invalid line");
  if (Line* line = find(addr)) {  // refresh in place
    line->state = state;
    line->last_use = now;
    return std::nullopt;
  }
  std::size_t s = set_index(addr);
  Line* victim = nullptr;
  for (int w = 0; w < config_.associativity; ++w) {
    Line& line = lines_[s * config_.associativity + w];
    if (line.state == LineState::kInvalid) {
      victim = &line;
      break;
    }
    if (!victim || line.last_use < victim->last_use) victim = &line;
  }
  std::optional<Eviction> evicted;
  if (victim->state != LineState::kInvalid) {
    evicted = Eviction{victim->tag, victim->state};
    ++evictions_;
    notify_residency(victim->tag, false);
  }
  victim->tag = block_base(addr, config_.block_bytes);
  victim->state = state;
  victim->last_use = now;
  notify_residency(victim->tag, true);
  return evicted;
}

LineState Cache::invalidate(Addr addr) {
  if (Line* line = find(addr)) {
    LineState prev = line->state;
    line->state = LineState::kInvalid;
    notify_residency(line->tag, false);
    return prev;
  }
  return LineState::kInvalid;
}

void Cache::clear() {
  for (Line& line : lines_) {
    if (line.state != LineState::kInvalid) notify_residency(line.tag, false);
    line.state = LineState::kInvalid;
  }
}

}  // namespace netcache::cache
