// Runtime coherence oracle: a functional shadow-memory model hooked into the
// commit points of all four protocol stacks. Every committed shared store
// gets a monotonically increasing per-block version token; every delivery
// (update snoop, invalidation, fill) records which version each node's
// cached copy now reflects; every cached read hit is checked against the
// committed version. Protocol invariants are asserted at transition points:
// shared-cache slot agreement and refresh freshness for NetCache, home
// memory currency for the update protocols, single-writer epochs and
// directory/owner agreement for I-SPEED, and write-buffer FIFO drain order
// everywhere.
//
// The model is exact for this simulator because deliveries are synchronous:
// each protocol's drain applies the update/invalidation to every node at the
// commit instant, so a cached hit whose observed version trails the
// committed version is a genuine stale copy, not an in-flight race. Fills
// stamp the version current at fill completion (an in-flight fill absorbs
// commits that land mid-transfer — see DESIGN.md §11 for the two documented
// model relaxations).
//
// The shadow state is one dense table with a row per shared L2 block,
// indexed by block number (shared addresses are dense from 0,
// AddressSpace::alloc_shared): a small header per row plus flat rows x
// nodes arrays of observed versions and presence bits (and fill times for
// DMON-I, whose grant check is their only reader). Machine::run sizes it
// once, after workload setup, to the shared footprint (plus the block the
// sequential prefetcher reaches past it) rounded up to a whole ring line. A
// hook outside it is an NC_ASSERT, not a growth, so a workload allocates
// every shared address it touches before the run starts.
//
// Violations abort through nc_assert_fail, so they carry the full
// FailureReporter context (engine time, blocked table, trace tail) plus this
// oracle's own recent-commit ring. The oracle is opt-in
// (MachineConfig::verify / --verify / NETCACHE_VERIFY=1), owned by one
// Machine, and touched only by that machine's thread — safe under the
// parallel sweep driver (one oracle per cell, thread-confined).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/failure.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"

namespace netcache::sim {
class Engine;
}
namespace netcache::core {
class AddressSpace;
}

namespace netcache::verify {

class CoherenceOracle final : public FailureContext {
 public:
  /// Where a fill's data came from; decides which freshness check applies.
  enum class FillSource { kMemory, kRing, kForward };

  CoherenceOracle(const MachineConfig& config, const core::AddressSpace& as,
                  sim::Engine& engine);
  ~CoherenceOracle() override;
  CoherenceOracle(const CoherenceOracle&) = delete;
  CoherenceOracle& operator=(const CoherenceOracle&) = delete;

  /// Allocates the shadow table for `shared_bytes` of shared memory
  /// (AddressSpace::shared_bytes_allocated() once the workload is set up),
  /// plus the block the sequential prefetcher may fetch past its end,
  /// rounded up to a whole ring line because a ring insert stamps every L2
  /// block of its line. Called once, before the first hook.
  void size_table(std::size_t shared_bytes);

  // --- Store pipeline -----------------------------------------------------
  /// A shared store entered `node`'s write buffer (possibly coalescing).
  void on_store_buffered(NodeId node, Addr addr);
  /// The drainer popped the shared entry for `block`; must be FIFO.
  void on_drain_start(NodeId node, Addr block_base);
  /// The drain reached its commit point: the store is globally ordered.
  void on_store_commit(NodeId writer, Addr block_base);
  /// The home memory absorbed the committed update (update protocols).
  void on_mem_update(Addr block_base);

  // --- Loads and cache residency ------------------------------------------
  /// A read was served by `node`'s own L1/L2 copy (`level` names which).
  void on_hit(NodeId node, Addr addr, const char* level);
  /// A miss filled `node`'s L2 from `source`.
  void on_fill(NodeId node, Addr block_base, FillSource source);
  void on_evict(NodeId node, Addr block_base);

  // --- Coherence deliveries (hooked inside Node, so they record what
  // actually happened, not what a protocol claims to have broadcast) -------
  void on_update_delivered(NodeId node, Addr block_base);
  /// The protocol put an invalidation for `block` on the wire (I-SPEED);
  /// stamps the broadcast instant used by the single-writer epoch check.
  void on_invalidate_broadcast(Addr block_base);
  void on_invalidate_delivered(NodeId node, Addr block_base);
  /// The O(sharers) delivery path skipped `count` nodes whose L2 holds no
  /// copy (the sharer audit proves it at the same delivery). For such a
  /// node the update/invalidate hook above only counts, so this credits
  /// the count and the counters match the full scan's.
  void on_non_sharers_skipped(std::uint64_t count);
  /// The block's per-node presence bits (one byte per node, nonzero where
  /// the oracle records a resident L2 copy); the sharer audit checks them
  /// against the caches at every delivery.
  const std::uint8_t* presence(Addr block_base) const;

  // --- NetCache ring shared cache -----------------------------------------
  void on_ring_insert(Addr block_base, const std::optional<Addr>& evicted);
  void on_ring_refresh(Addr block_base, bool was_present);
  void on_ring_drop(Addr block_base);
  /// The protocol decided to serve `reader` from the ring: the oracle must
  /// agree the block is there and that its copy reflects the latest commit.
  void on_ring_hit(NodeId reader, Addr block_base);

  // --- I-SPEED directory protocol -----------------------------------------
  /// `owner` was granted exclusive ownership: every copy predating the
  /// invalidation broadcast must be gone (single-writer epoch).
  void on_exclusive_grant(NodeId owner, Addr block_base);
  /// A miss is being forwarded from the exclusive `owner`'s cache.
  void on_owner_forward(NodeId owner, Addr block_base);

  /// End-of-run audit (after every fence has drained): all surviving cached
  /// copies, the home memories, and the ring must reflect the last commit.
  /// Guarantees an unmasked fault is caught even if nobody read after it.
  void final_audit();

  const OracleStats& stats() const { return stats_; }

  /// Oracle counters + recent-commit ring, appended to failure reports.
  void describe_failure_context(std::string& out) const override;

 private:
  /// Header of one shared L2 block's row.
  struct Row {
    std::uint32_t committed = 0;  // latest globally ordered version
    std::uint32_t mem = 0;        // version the home memory holds
    std::uint32_t ring = 0;       // version the ring copy holds
    NodeId last_writer = kNoNode;
    Cycles last_commit = 0;
    Cycles last_invalidate = 0;   // I-SPEED broadcast instant
    bool tracked = false;         // some hook has touched the block
    bool ring_line = false;       // ring line starting here is cached
  };

  struct CommitRecord {
    Addr block = 0;
    NodeId writer = kNoNode;
    std::uint32_t version = 0;
    Cycles time = 0;
  };

  std::size_t row_of(Addr block_base) const;
  /// The block's row, marked tracked.
  Row& state(Addr block_base);
  /// Index of (`row`, `node`) in the per-node arrays.
  std::size_t at(const Row& row, NodeId node) const {
    return static_cast<std::size_t>(&row - rows_.data()) *
               static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(node);
  }
  bool tracked(Addr addr) const;
  /// Ring presence is tracked per ring *line* (>= one L2 block wide, see the
  /// Section 5.3.2 wide-line ablation) in the flag of the line's first row;
  /// freshness stays per L2 block because a refresh only rewrites the
  /// updated block's words.
  Addr ring_line_of(Addr addr) const;
  bool on_ring(Addr addr) const;
  [[noreturn]] void violation(const char* what, NodeId node, Addr block_base,
                              const Row* bs) const;

  const MachineConfig* config_;
  const core::AddressSpace* as_;
  sim::Engine* engine_;
  bool update_based_;  // all systems except DMON-I deliver updates
  int nodes_;
  int block_shift_;  // log2(l2.block_bytes)
  std::vector<Row> rows_;               // one per shared L2 block
  std::vector<std::uint32_t> observed_; // rows x nodes: version of the copy
  std::vector<std::uint8_t> present_;   // rows x nodes: copy resident?
  std::vector<Cycles> fill_time_;       // rows x nodes, DMON-I only
  // Per-node FIFO mirror of the write buffer's *shared* entries, exploiting
  // its coalescing rule (at most one entry per block).
  std::vector<std::vector<Addr>> pending_fifo_;
  OracleStats stats_;
  // Last few commits, dumped into failure reports for context.
  static constexpr std::size_t kCommitRing = 8;
  CommitRecord recent_commits_[kCommitRing];
  std::uint64_t commit_seq_ = 0;
};

}  // namespace netcache::verify
