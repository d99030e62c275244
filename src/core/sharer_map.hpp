// Sharer-tracking directory for the simulator's own benefit (DESIGN.md
// section 16): an exact mirror of which nodes' L2s hold each shared block,
// so snoop delivery costs O(sharers) instead of probing every node's L2 on
// every coherence commit. This is host-side bookkeeping, not a protocol
// structure — simulated timing and all results are bit-identical with
// tracking off (NETCACHE_SHARER_TRACKING=0 restores the full scan).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.hpp"

namespace netcache::core {

/// L2 block base -> node bitmap (u64 words sized to the node count).
class SharerMap {
 public:
  /// `blocks_hint` pre-sizes the hash map (a good hint: the per-node L2
  /// line count times the node count).
  SharerMap(int nodes, std::size_t blocks_hint);

  int nodes() const { return nodes_; }

  /// Records that `node`'s L2 now does (resident) or no longer does hold
  /// the block. Driven by the per-node cache residency hook at the three
  /// points where L2 residency changes (insert, evict, invalidate).
  void set_resident(Addr block_base, NodeId node, bool resident);

  /// True iff `node` is recorded as caching the block (used by the
  /// NETCACHE_VERIFY exactness audit).
  bool contains(Addr block_base, NodeId node) const;

  /// Returns the block's sharers in ascending node order — the exact
  /// per-node call sequence of a full 0..N-1 snoop scan, restricted to the
  /// nodes whose L2 holds the block. The returned vector is internal
  /// scratch, valid until the next call; it is a snapshot, so delivery code
  /// may invalidate lines (mutating the map) while iterating it.
  const std::vector<NodeId>& snapshot(Addr block_base);

  /// Peak number of blocks with at least one sharer. Host-side
  /// observability, like the other SnoopStats counters: excluded from
  /// serialization and bit-identity comparisons.
  std::uint64_t peak_blocks() const { return peak_; }

 private:
  /// Pointer to the block's `words_` bitmap words, or null if untracked.
  const std::uint64_t* bitmap(Addr block_base) const;

  int nodes_;
  int words_;  // bitmap words per entry: ceil(nodes / 64)
  /// Block base -> bitmap slot number (offset / words_ into `pool_`).
  std::unordered_map<Addr, std::uint32_t> slots_;
  /// Bitmap storage, `words_` u64s per slot; freed slots are recycled so
  /// the pool plateaus at the peak working set.
  std::vector<std::uint64_t> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t live_ = 0;
  std::uint64_t peak_ = 0;
  std::vector<NodeId> snapshot_;  // snapshot() scratch
};

}  // namespace netcache::core
