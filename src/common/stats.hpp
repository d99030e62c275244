// Per-node and machine-wide simulation statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/histogram.hpp"
#include "src/common/types.hpp"

namespace netcache {

/// Counters accumulated by one node over a run. All *cycles fields are sums
/// of simulated pcycles; all plain counters are event counts.
struct NodeStats {
  // Reads (data loads issued by the processor).
  std::uint64_t reads = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;        // shared, remote home
  std::uint64_t local_mem_reads = 0;  // private or local-home misses
  Cycles read_cycles = 0;             // processor time spent in reads
  Cycles l2_miss_cycles = 0;          // portion spent on L2 misses
  LatencyHistogram read_latency_hist;  // distribution of read latencies

  // NetCache shared (ring) cache.
  std::uint64_t shared_cache_hits = 0;
  std::uint64_t shared_cache_misses = 0;
  std::uint64_t race_window_delays = 0;

  // Writes / coherence.
  std::uint64_t writes = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t update_words = 0;
  std::uint64_t ownership_requests = 0;  // DMON-I
  std::uint64_t invalidations_received = 0;
  std::uint64_t writebacks = 0;
  Cycles wb_full_stall_cycles = 0;

  // Prefetch extension.
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetches_useful = 0;

  // Synchronization.
  std::uint64_t lock_acquires = 0;
  std::uint64_t barrier_waits = 0;
  Cycles sync_cycles = 0;

  // Busy work (co_await cpu.compute).
  Cycles compute_cycles = 0;

  /// Node's completion time (virtual).
  Cycles finish_time = 0;

  void add(const NodeStats& o);
};

/// Counters kept by the coherence oracle (src/verify/) over one run. A
/// violation aborts with a full failure report, so a summary carrying these
/// counters describes a run the oracle passed; the counts say how much it
/// actually checked.
struct OracleStats {
  std::uint64_t loads_checked = 0;    // cached hits validated against commits
  std::uint64_t stores_committed = 0;
  std::uint64_t updates_delivered = 0;
  std::uint64_t invalidations_delivered = 0;
  std::uint64_t fills = 0;
  std::uint64_t ring_checks = 0;       // shared-cache hit/refresh agreements
  std::uint64_t grants_checked = 0;    // I-SPEED single-writer epochs
  std::uint64_t drains_checked = 0;    // write-buffer FIFO order
  std::uint64_t blocks_tracked = 0;    // distinct shared blocks shadowed
};

/// Host-cost counters for snoop delivery (sharer tracking, DESIGN.md
/// section 16). Per delivery, probes + probes_avoided == nodes - 1:
/// delivery probes only the sharers the map records and books the other
/// peers as avoided. These describe host work, not simulated behaviour, so
/// they are excluded from summary serialization.
struct SnoopStats {
  std::uint64_t deliveries = 0;      // update/invalidate broadcast commits
  std::uint64_t probes = 0;          // per-node L2 snoops actually performed
  std::uint64_t probes_avoided = 0;  // snoops skipped via the sharer map
  std::uint64_t peak_blocks = 0;     // SharerMap::peak_blocks() at end of run
};

/// Counters kept by the fault-injection plan (src/faults/) over one run.
struct FaultStats {
  std::uint64_t injected = 0;     // fault instances that took effect
  std::uint64_t recovered = 0;    // recovery actions that masked a fault
  std::uint64_t retries = 0;      // retry/backoff rounds spent recovering
  std::uint64_t unrecovered = 0;  // effects left unmasked (recovery off)
};

/// Aggregated view over all nodes of one run.
class MachineStats {
 public:
  explicit MachineStats(int nodes) : per_node_(nodes) {}

  NodeStats& node(NodeId id) { return per_node_[static_cast<size_t>(id)]; }
  const NodeStats& node(NodeId id) const {
    return per_node_[static_cast<size_t>(id)];
  }
  int nodes() const { return static_cast<int>(per_node_.size()); }

  NodeStats total() const;

  /// Run time = latest node finish time.
  Cycles run_time() const;

  /// Fraction of remote L2 misses satisfied by the shared ring cache.
  double shared_cache_hit_rate() const;

  /// Mean processor cycles per read.
  double avg_read_latency() const;

  /// Mean latency of a remote L2 miss.
  double avg_l2_miss_latency() const;

  /// Sum over nodes of time spent in reads / sum of node run time.
  double read_latency_fraction() const;

  double sync_fraction() const;

 private:
  std::vector<NodeStats> per_node_;
};

}  // namespace netcache
