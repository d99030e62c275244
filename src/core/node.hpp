// One multiprocessor node: processor-side caches, coalescing write buffer
// with its background drainer, and the local memory module.
#pragma once

#include <memory>
#include <unordered_set>

#include "src/cache/cache.hpp"
#include "src/cache/write_buffer.hpp"
#include "src/common/config.hpp"
#include "src/common/stats.hpp"
#include "src/core/interconnect.hpp"
#include "src/memory/memory_module.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"
#include "src/sim/wait_list.hpp"

namespace netcache::verify {
class CoherenceOracle;
}

namespace netcache::core {

class Node {
 public:
  Node(sim::Engine& engine, const MachineConfig& config, NodeId id,
       NodeStats& stats);

  NodeId id() const { return id_; }
  cache::Cache& l1() { return l1_; }
  cache::Cache& l2() { return l2_; }
  cache::WriteBuffer& wb() { return wb_; }
  memory::MemoryModule& mem() { return mem_; }
  NodeStats& stats() { return *stats_; }

  /// Wires the protocol in (constructed after the nodes) and spawns the
  /// write-buffer drainer process. `oracle` is null unless the run is
  /// verified; delivery snoops and drain order are reported to it.
  void start(Interconnect* interconnect,
             verify::CoherenceOracle* oracle = nullptr);

  /// Tells the drainer to exit once the buffer is empty (end of run).
  void request_shutdown();

  /// Release fence: completes when every buffered write has been drained,
  /// acknowledged, and the local memory queue has been applied (the paper's
  /// rule for passing a lock acquire or barrier under release consistency).
  sim::Task<void> fence();

  /// Snoop of a remote update: L2 copies stay valid (the update refreshes
  /// them); the L1 copy is invalidated (paper Section 4.1).
  void apply_remote_update(Addr block_base);

  /// Snoop of an I-SPEED invalidation: drops the block from both caches.
  void apply_invalidate(Addr block_base);

  /// Drops every L1 sub-block of an L2-sized block (used on L2 evictions to
  /// keep L1 from holding lines the L2 no longer backs).
  void invalidate_l1_block(Addr l2_block_base);

  // Sequential-prefetch bookkeeping (extension; see MachineConfig).
  bool prefetch_in_flight(Addr block_base) const {
    return prefetch_in_flight_.count(block_base) != 0;
  }
  void mark_prefetch_started(Addr block_base) {
    prefetch_in_flight_.insert(block_base);
  }
  void mark_prefetch_filled(Addr block_base) {
    prefetch_in_flight_.erase(block_base);
    prefetched_.insert(block_base);
    prefetch_waiters_.notify_all(*engine_);
  }
  /// Demand reads that caught an in-flight prefetch park here.
  sim::WaitList& prefetch_waiters() { return prefetch_waiters_; }
  /// True (once) if `block_base` was brought in by the prefetcher; used to
  /// count useful prefetches on the first demand hit.
  bool take_prefetched(Addr block_base) {
    return prefetched_.erase(block_base) != 0;
  }

 private:
  sim::Task<void> drain_loop();

  sim::Engine* engine_;
  const MachineConfig* config_;
  NodeId id_;
  NodeStats* stats_;
  cache::Cache l1_;
  cache::Cache l2_;
  cache::WriteBuffer wb_;
  memory::MemoryModule mem_;
  Interconnect* interconnect_ = nullptr;
  verify::CoherenceOracle* oracle_ = nullptr;
  bool drain_in_flight_ = false;
  bool shutdown_ = false;
  std::unordered_set<Addr> prefetch_in_flight_;
  std::unordered_set<Addr> prefetched_;
  sim::WaitList prefetch_waiters_{"Node.prefetch"};
};

}  // namespace netcache::core
