// Sharer-tracking directory for the simulator's own benefit (DESIGN.md
// section 16): an exact mirror of which nodes' L2s hold each shared block,
// so snoop delivery costs O(sharers) instead of probing every node's L2 on
// every coherence commit. This is host-side bookkeeping, not a protocol
// structure — simulated timing and all results are bit-identical with
// tracking off (MachineConfig::sharer_tracking = false runs the full scan,
// the reference that tests and bench_node_scaling compare against).
//
// The directory is a dense table, not a hash: ceil(nodes / 64) bitmap words
// per shared L2 block, indexed by block number. Shared addresses are dense
// from 0 (AddressSpace::alloc_shared) and the residency hook keeps private
// blocks out, so the table spans the shared footprint that has ever been
// cached. It doubles on the first resident mark past its end; reads past
// the end see no sharers and do not grow it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/types.hpp"

namespace netcache::core {

/// L2 block number -> node bitmap (u64 words sized to the node count).
class SharerMap {
 public:
  /// `block_bytes` is the L2 block size (a power of two): block bases are
  /// turned into table rows by shifting.
  SharerMap(int nodes, int block_bytes);

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

  /// Blocks the table currently spans (a power of two, or 0 before the
  /// first resident mark).
  std::size_t table_blocks() const { return bits_.size() / words_; }

 private:
  /// Offset of the block's first bitmap word in `bits_`.
  std::size_t row(Addr block_base) const {
    return static_cast<std::size_t>(block_base >> block_shift_) * words_;
  }

  int nodes_;
  std::size_t words_;  // bitmap words per block: ceil(nodes / 64)
  int block_shift_;    // log2(block_bytes)
  /// `words_` u64s per block, block 0 first; grown by doubling.
  std::vector<std::uint64_t> bits_;
  std::uint64_t live_ = 0;  // blocks with at least one sharer
  std::uint64_t peak_ = 0;
  std::vector<NodeId> snapshot_;  // snapshot() scratch
};

}  // namespace netcache::core
