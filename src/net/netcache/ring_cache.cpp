#include "src/net/netcache/ring_cache.hpp"

#include <algorithm>
#include <span>

#include "src/common/nc_assert.hpp"

namespace netcache::net {

RingCache::RingCache(const RingConfig& config, Cycles roundtrip_cycles,
                     Cycles read_overhead_cycles, int nodes, int block_bytes,
                     Rng& rng)
    : config_(config),
      roundtrip_(roundtrip_cycles),
      read_overhead_(read_overhead_cycles),
      nodes_(nodes),
      block_bytes_(block_bytes),
      slot_period_(std::max<Cycles>(1, roundtrip_cycles /
                                           config.blocks_per_channel)),
      rng_(&rng),
      slots_(static_cast<std::size_t>(config.channels) *
             static_cast<std::size_t>(config.blocks_per_channel)),
      usage_(slots_.size()) {
  NC_ASSERT(config.channels > 0 && config.blocks_per_channel > 0,
            "empty ring cache");
  NC_ASSERT(roundtrip_cycles > 0, "ring needs positive roundtrip");
  // The index never outgrows the slot count; pre-sizing it kills mid-run
  // rehashes on the hot insert/lookup path.
  index_.reserve(static_cast<std::size_t>(capacity_blocks()));
}

bool RingCache::contains(Addr block_addr) const {
  return index_.find(block_base(block_addr, block_bytes_)) != index_.end();
}

Cycles RingCache::slot_passage(int slot_index, NodeId reader,
                               Cycles from) const {
  // Node `reader` sits at phase reader*roundtrip/nodes around the ring; slot
  // `slot_index`'s tail passes it whenever
  //   t mod roundtrip == (slot_index*slot_period + reader_phase) mod roundtrip.
  Cycles reader_phase =
      (static_cast<Cycles>(reader) * roundtrip_) / static_cast<Cycles>(nodes_);
  Cycles target =
      (static_cast<Cycles>(slot_index) * slot_period_ + reader_phase) %
      roundtrip_;
  Cycles in_cycle = from % roundtrip_;
  Cycles wait = (target - in_cycle + roundtrip_) % roundtrip_;
  return from + wait;
}

std::optional<Cycles> RingCache::arrival_time(Addr block_addr, NodeId reader,
                                              Cycles now) const {
  Addr base = block_base(block_addr, block_bytes_);
  auto it = index_.find(base);
  if (it == index_.end()) return std::nullopt;
  int channel = channel_of(base);
  const Slot& s = slot_at(channel, it->second);
  Cycles from = std::max(now, s.valid_from);
  return slot_passage(it->second, reader, from) + read_overhead_;
}

std::optional<Addr> RingCache::insert(Addr block_addr, Cycles now) {
  Addr base = block_base(block_addr, block_bytes_);
  if (auto it = index_.find(base); it != index_.end()) {
    // Already on the ring: refresh in place (one lookup instead of the
    // contains()+refresh() pair, which each re-ran block_base and find).
    Slot& s = slot_at(channel_of(base), it->second);
    s.valid_from = std::max(s.valid_from, now);
    return std::nullopt;
  }
  ++insertions_;
  int channel = channel_of(base);
  int victim = -1;
  if (config_.associativity == RingAssociativity::kDirectMapped) {
    victim = static_cast<int>(
        (block_of(base, block_bytes_) /
         static_cast<Addr>(config_.channels)) %
        static_cast<Addr>(config_.blocks_per_channel));
  } else {
    for (int i = 0; i < config_.blocks_per_channel; ++i) {
      if (!slot_at(channel, i).valid) {
        victim = i;
        break;
      }
    }
    if (victim < 0) {
      victim = cache::pick_victim(
          config_.replacement,
          std::span<const cache::LineUsage>(
              &usage_[at(channel, 0)],
              static_cast<std::size_t>(config_.blocks_per_channel)),
          *rng_);
    }
  }
  Slot& s = slot_at(channel, victim);
  std::optional<Addr> evicted;
  if (s.valid) {
    evicted = s.block;
    index_.erase(s.block);
    ++replacements_;
  }
  s.block = base;
  s.valid = true;
  // The new block is readable once the home has written it into the slot as
  // the slot passes the home's position; approximate as available from now.
  s.valid_from = now;
  usage_[at(channel, victim)] = cache::LineUsage{now, 1, now};
  index_[base] = victim;
  return evicted;
}

bool RingCache::refresh(Addr block_addr, Cycles now) {
  Addr base = block_base(block_addr, block_bytes_);
  auto it = index_.find(base);
  if (it == index_.end()) return false;
  Slot& s = slot_at(channel_of(base), it->second);
  // The refreshed copy is written as the slot next passes the home node;
  // readers racing with it are held off by the protocol's update-window FIFO.
  s.valid_from = std::max(s.valid_from, now);
  return true;
}

void RingCache::touch(Addr block_addr, Cycles now) {
  Addr base = block_base(block_addr, block_bytes_);
  auto it = index_.find(base);
  if (it == index_.end()) return;
  cache::LineUsage& u = usage_[at(channel_of(base), it->second)];
  u.last_use = now;
  ++u.uses;
}

Cycles RingCache::miss_detection_time(Addr block_addr, NodeId reader,
                                      Cycles now) const {
  // The reader must watch every slot tail pass once: the nearest tail
  // arrives after the phase distance, the rest follow one slot period
  // apart.
  (void)block_addr;  // all channels share the rotation geometry
  Cycles first = slot_passage(0, reader, now);
  for (int s = 1; s < config_.blocks_per_channel; ++s) {
    first = std::min(first, slot_passage(s, reader, now));
  }
  Cycles remaining =
      static_cast<Cycles>(config_.blocks_per_channel - 1) * slot_period_;
  return first + remaining;
}

void RingCache::drop(Addr block_addr) {
  Addr base = block_base(block_addr, block_bytes_);
  auto it = index_.find(base);
  if (it == index_.end()) return;
  Slot& s = slot_at(channel_of(base), it->second);
  s.valid = false;
  index_.erase(it);
}

}  // namespace netcache::net
