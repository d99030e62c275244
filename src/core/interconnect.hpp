// Abstract interface every simulated interconnect + coherence protocol
// implements. The CPU/node layer is protocol-agnostic; all system-specific
// behaviour (NetCache, LambdaNet, DMON-U, DMON-I) lives behind this.
#pragma once

#include "src/cache/cache.hpp"
#include "src/cache/write_buffer.hpp"
#include "src/common/types.hpp"
#include "src/sim/task.hpp"

namespace netcache::core {

/// Which structure supplied a fill's data (used by the coherence oracle to
/// pick the freshness check that applies; kMemory is the default/common case).
enum class FillSource : std::uint8_t { kMemory, kRing, kForward };

struct FetchResult {
  /// NetCache only: the miss was satisfied by the shared ring cache.
  bool shared_cache_hit = false;
  /// State to install the block with in the requester's L2.
  cache::LineState fill_state = cache::LineState::kValid;
  /// Who served the data (ring slot, forwarded owner copy, or home memory).
  FillSource source = FillSource::kMemory;
};

class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Handles a remote-shared L2 read miss. Called after the L1/L2 tag checks
  /// have been charged; completes when the block is in the requester's L2.
  virtual sim::Task<FetchResult> fetch_block(NodeId requester,
                                             Addr block_base) = 0;

  /// Drains one coalesced shared-write entry from `src`'s write buffer
  /// (an update broadcast, or an ownership acquisition for DMON-I).
  /// Completes when the node may issue its next coherence transaction.
  virtual sim::Task<void> drain_write(NodeId src,
                                      const cache::WriteEntry& entry) = 0;

  /// Broadcasts a small synchronization message (lock/barrier traffic).
  /// Completes when every node has observed it.
  virtual sim::Task<void> sync_message(NodeId src) = 0;

  /// Notification that `node` evicted `block_base` from its L2 in `state`.
  /// DMON-I uses this for writebacks / directory maintenance.
  virtual void on_l2_eviction(NodeId node, Addr block_base,
                              cache::LineState state) {
    (void)node;
    (void)block_base;
    (void)state;
  }

  virtual const char* name() const = 0;
};

}  // namespace netcache::core
