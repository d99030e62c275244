// Simulated global address space: shared data block-interleaved across the
// node memories (paper Section 4.1), plus a per-node private region.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/types.hpp"

namespace netcache::core {

class AddressSpace {
 public:
  AddressSpace(int nodes, int block_bytes);

  /// Size of the shared heap: every shared address lies below it.
  static constexpr std::size_t kSharedHeapBytes = std::size_t{1} << 47;

  /// Allocates `bytes` of shared memory, block-aligned. Blocks are assigned
  /// to home nodes round-robin by block number.
  Addr alloc_shared(std::size_t bytes);

  /// True when alloc_shared(bytes) fits the rest of the shared heap.
  bool fits_shared(std::size_t bytes) const;

  /// Allocates `bytes` of private memory local to `node`, block-aligned.
  Addr alloc_private(NodeId node, std::size_t bytes);

  bool is_private(Addr addr) const { return (addr & kPrivateBit) != 0; }

  /// Home node: owner for private addresses, block-interleaved for shared.
  NodeId home(Addr addr) const;

  int block_bytes() const { return block_bytes_; }
  int nodes() const { return nodes_; }
  std::size_t shared_bytes_allocated() const { return shared_top_; }

 private:
  /// `bytes` rounded up to whole blocks.
  std::size_t aligned(std::size_t bytes) const {
    const auto block = static_cast<std::size_t>(block_bytes_);
    return (bytes + block - 1) & ~(block - 1);
  }

  static constexpr Addr kPrivateBit = Addr{1} << 48;
  static constexpr Addr kPrivateNodeShift = 40;
  static constexpr Addr kPrivateNodeMask = 0xFF;  // node ids 0..255

  int nodes_;
  int block_bytes_;
  std::size_t shared_top_ = 0;
  std::vector<std::size_t> private_top_;
};

}  // namespace netcache::core
