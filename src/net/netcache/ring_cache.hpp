// The WDM ring delay-line shared cache (paper Section 3.3). Blocks circulate
// on cache channels; a reader waits for the block's slot to rotate past its
// ring position. Channel-to-block mapping is direct (block % channels);
// placement within a channel is fully associative (or direct-mapped, for the
// Figure 11 ablation).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cache/replacement.hpp"
#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace netcache::net {

class RingCache {
 public:
  RingCache(const RingConfig& config, Cycles roundtrip_cycles,
            Cycles read_overhead_cycles, int nodes, int block_bytes,
            Rng& rng);

  int channels() const { return config_.channels; }
  int capacity_blocks() const {
    return config_.channels * config_.blocks_per_channel;
  }

  int channel_of(Addr block_addr) const {
    return static_cast<int>(block_of(block_addr, block_bytes_) %
                            static_cast<Addr>(config_.channels));
  }

  /// Home-side hash-table view: is the block currently cached on the ring?
  bool contains(Addr block_addr) const;

  /// Cycle at which `reader` can hand the block to its NI (slot rotation +
  /// read overhead), if the block is present. The result is >= now.
  std::optional<Cycles> arrival_time(Addr block_addr, NodeId reader,
                                     Cycles now) const;

  /// Inserts the block (home-side), replacing per the configured policy.
  /// Returns the replaced block, if the channel was full.
  std::optional<Addr> insert(Addr block_addr, Cycles now);

  /// Refreshes the ring copy after an update broadcast. Returns true if the
  /// block was present (the home only updates cached blocks).
  bool refresh(Addr block_addr, Cycles now);

  /// Replacement-policy bookkeeping on a shared-cache read hit.
  void touch(Addr block_addr, Cycles now);

  /// Drops the block (used by tests and the block-size ablations).
  void drop(Addr block_addr);

  /// Cycle at which `reader` has seen every slot of the block's channel
  /// rotate past (and thus knows the block is absent). Used by the
  /// ring-only-reads ablation (paper Section 3.4).
  Cycles miss_detection_time(Addr block_addr, NodeId reader,
                             Cycles now) const;

  Cycles roundtrip() const { return roundtrip_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t replacements() const { return replacements_; }

 private:
  struct Slot {
    Addr block = 0;
    bool valid = false;
    Cycles valid_from = 0;
  };

  /// Position of slot `index` of `channel` in `slots_` and `usage_`.
  std::size_t at(int channel, int index) const {
    return static_cast<std::size_t>(channel) *
               static_cast<std::size_t>(config_.blocks_per_channel) +
           static_cast<std::size_t>(index);
  }
  Slot& slot_at(int channel, int index) { return slots_[at(channel, index)]; }
  const Slot& slot_at(int channel, int index) const {
    return slots_[at(channel, index)];
  }

  /// First time >= `from` at which slot `index`'s tail passes `reader`.
  Cycles slot_passage(int slot_index, NodeId reader, Cycles from) const;

  RingConfig config_;
  Cycles roundtrip_;
  Cycles read_overhead_;
  int nodes_;
  int block_bytes_;
  Cycles slot_period_;
  Rng* rng_;
  std::vector<Slot> slots_;
  /// Replacement metadata, one entry per slot in `slots_`' order, so a
  /// channel's entries are one contiguous span for cache::pick_victim.
  std::vector<cache::LineUsage> usage_;
  std::unordered_map<Addr, int> index_;  // block addr -> slot index in channel
  std::uint64_t insertions_ = 0;
  std::uint64_t replacements_ = 0;
};

}  // namespace netcache::net
