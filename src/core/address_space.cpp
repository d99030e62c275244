#include "src/core/address_space.hpp"

#include "src/common/config.hpp"
#include "src/common/nc_assert.hpp"

namespace netcache::core {

AddressSpace::AddressSpace(int nodes, int block_bytes)
    : nodes_(nodes),
      block_bytes_(block_bytes),
      private_top_(static_cast<std::size_t>(nodes), 0) {
  NC_ASSERT(nodes > 0, "need nodes");
  NC_ASSERT(is_pow2(static_cast<std::uint64_t>(block_bytes)),
            "block size must be a power of two");
}

Addr AddressSpace::alloc_shared(std::size_t bytes) {
  NC_ASSERT(bytes > 0, "empty allocation");
  NC_ASSERT(fits_shared(bytes), "shared heap overflow");
  Addr base = static_cast<Addr>(shared_top_);
  shared_top_ += aligned(bytes);
  return base;
}

bool AddressSpace::fits_shared(std::size_t bytes) const {
  // The first test keeps aligned() from overflowing.
  return bytes < kSharedHeapBytes - shared_top_ &&
         shared_top_ + aligned(bytes) < kSharedHeapBytes;
}

Addr AddressSpace::alloc_private(NodeId node, std::size_t bytes) {
  NC_ASSERT(node >= 0 && node < nodes_, "bad node for private allocation");
  static_assert(static_cast<Addr>(kMaxNodes - 1) <= kPrivateNodeMask,
                "MachineConfig::validate admits node ids the field can't hold");
  NC_ASSERT(static_cast<Addr>(node) <= kPrivateNodeMask,
            "node id does not fit the private-address node field");
  std::size_t& top = private_top_[static_cast<std::size_t>(node)];
  Addr base = kPrivateBit |
              (static_cast<Addr>(node) << kPrivateNodeShift) |
              static_cast<Addr>(top);
  top += aligned(bytes);
  NC_ASSERT(top < (std::size_t{1} << kPrivateNodeShift),
            "private heap overflow");
  return base;
}

NodeId AddressSpace::home(Addr addr) const {
  if (is_private(addr)) {
    return static_cast<NodeId>((addr >> kPrivateNodeShift) & kPrivateNodeMask);
  }
  return static_cast<NodeId>(block_of(addr, block_bytes_) %
                             static_cast<Addr>(nodes_));
}

}  // namespace netcache::core
