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

  /// Allocates `bytes` of shared memory, block-aligned. Blocks are assigned
  /// to home nodes round-robin by block number.
  Addr alloc_shared(std::size_t bytes);

  /// Allocates `bytes` of private memory local to `node`, block-aligned.
  Addr alloc_private(NodeId node, std::size_t bytes);

  bool is_private(Addr addr) const { return (addr & kPrivateBit) != 0; }

  /// Home node: owner for private addresses, block-interleaved for shared.
  NodeId home(Addr addr) const;

  int block_bytes() const { return block_bytes_; }
  int nodes() const { return nodes_; }
  std::size_t shared_bytes_allocated() const { return shared_top_; }

 private:
  static constexpr Addr kPrivateBit = Addr{1} << 48;
  static constexpr Addr kPrivateNodeShift = 40;
  static constexpr Addr kPrivateNodeMask = 0xFF;  // node ids 0..255

  int nodes_;
  int block_bytes_;
  std::size_t shared_top_ = 0;
  std::vector<std::size_t> private_top_;
};

}  // namespace netcache::core
