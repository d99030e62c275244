// Machine configuration: every architectural parameter from the paper's
// Section 4 plus the knobs varied in the Section 5 parameter-space study.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/types.hpp"

namespace netcache {

/// Which simulated multiprocessor to build.
enum class SystemKind {
  kNetCache,        // star coupler + ring shared cache, update coherence
  kNetCacheNoRing,  // NetCache star coupler only (no shared cache ablation)
  kLambdaNet,       // one channel per node, update coherence
  kDmonUpdate,      // DMON + extra broadcast channel, update coherence
  kDmonInvalidate,  // DMON + I-SPEED invalidate coherence
};

const char* to_string(SystemKind kind);

/// Shared (ring) cache replacement policy — Figure 12.
enum class RingReplacement { kRandom, kLfu, kLru, kFifo };
const char* to_string(RingReplacement policy);

/// Shared cache channel organization — Figure 11.
enum class RingAssociativity { kFullyAssociative, kDirectMapped };
const char* to_string(RingAssociativity assoc);

/// Geometry of a conventional (electronic) processor cache.
struct CacheConfig {
  int size_bytes;
  int block_bytes;
  int associativity;  // 1 = direct-mapped

  int sets() const { return size_bytes / (block_bytes * associativity); }
};

/// The WDM ring subnetwork / shared cache.
struct RingConfig {
  /// Number of cache channels (q). Paper base: 128 -> 32 KB shared cache.
  int channels = 128;
  /// Blocks stored per channel. Fixed by fiber length x rate in the paper
  /// (45 m at 10 Gbit/s ~ 4 x 64 B blocks + tags).
  int blocks_per_channel = 4;
  /// Shared cache line size in bytes.
  int block_bytes = 64;
  /// Ring roundtrip time at the *base* 10 Gbit/s rate; scales inversely with
  /// the transmission rate (the paper adjusts fiber length to keep capacity).
  Cycles base_roundtrip_cycles = 40;
  RingReplacement replacement = RingReplacement::kRandom;
  RingAssociativity associativity = RingAssociativity::kFullyAssociative;
  /// Fixed per-read overhead after the block's tail passes the reader: tag
  /// check + shift-register-to-access-register move. Calibrated so the mean
  /// shared-cache read delay is roundtrip/2 + 5 = 25 pcycles (Table 1).
  Cycles read_overhead_cycles = 5;

  int capacity_bytes() const {
    return channels * blocks_per_channel * block_bytes;
  }
};

/// Deterministic protocol-fault injection (src/faults/). Disabled unless
/// `spec` names at least one fault. The spec is a comma list of
/// `kind:count[@duration]` items, e.g. "drop-update:2,outage:1@200"; kinds:
///   drop-update      one sharer misses an update delivery
///   corrupt-update   the home memory rejects (misses) an update
///   ring-slot        a ring-cache slot misses its refresh (NetCache only)
///   drop-invalidate  one sharer misses an invalidation (DMON-I only)
///   outage           the coherence channel is down for `duration` pcycles
///   stall            one node's memory is unresponsive for `duration`
/// Arm times are derived from `seed` alone, so the schedule is identical at
/// any sweep --jobs count.
struct FaultConfig {
  std::string spec;
  std::uint64_t seed = 0xFA17ED5EEDull;
  /// Run the matching recovery path (retransmit / scrub / NACK-retry). With
  /// recovery off, every injected fault must be caught by the oracle or the
  /// deadlock/watchdog diagnostics — config validation requires `verify`.
  bool recovery = true;
  int retry_budget = 16;
  Cycles retry_backoff = 64;

  bool enabled() const { return !spec.empty(); }
};

/// Widest machine validate() accepts: AddressSpace packs a private address's
/// node id into 8 address bits.
inline constexpr int kMaxNodes = 256;

/// Full machine description. Defaults reproduce the paper's base system.
struct MachineConfig {
  int nodes = 16;  // 1..kMaxNodes
  SystemKind system = SystemKind::kNetCache;

  CacheConfig l1{4 * 1024, 32, 1};
  CacheConfig l2{16 * 1024, 64, 1};
  int write_buffer_entries = 16;

  /// Contention-free L2 read hit time, pcycles (includes the L1 check).
  Cycles l2_hit_cycles = 12;

  /// Contention-free memory block read, pcycles (Figure 15 varies this).
  Cycles mem_block_read_cycles = 76;
  /// Memory update-queue entries beyond which acks are withheld.
  int mem_queue_hysteresis = 8;

  /// Optical channel transmission rate, Gbit/s (Figure 14 varies this).
  double gbit_per_s = 10.0;

  RingConfig ring;

  /// Paper Section 3.4: reads start on the star coupler and the ring in
  /// parallel, so a shared-cache miss costs no more than a direct remote
  /// access. False models the ring-only alternative the paper argues
  /// against: a miss is detected only after the whole channel has rotated
  /// past, adding ~half a roundtrip before the star request starts.
  bool reads_start_on_star = true;

  /// Extension (paper Section 6): sequential next-block prefetching into
  /// the L2 on remote misses. Requires extra tunable receivers on the
  /// NetCache architecture, which is why the paper leaves it out; the
  /// simulator lets you evaluate whether it would be cost-effective.
  bool sequential_prefetch = false;

  std::uint64_t seed = 0x9E3779B97F4A7C15ull;

  /// Sharer-tracking directory (src/core/sharer_map.hpp, DESIGN.md section
  /// 16): mirrors L2 residency so snoop delivery costs O(sharers) instead
  /// of probing every node. Results are bit-identical either way (enforced
  /// by tests), so this is an execution knob, not a machine parameter — the
  /// result cache deliberately excludes it from its key. False runs the full
  /// O(nodes) scan: the reference the tests and bench_node_scaling compare
  /// the tracked path against.
  bool sharer_tracking = true;

  /// Runtime coherence oracle (src/verify/): shadow-memory model checking
  /// every cached hit against the per-block commit history plus the protocol
  /// invariants at transition points. Also enabled by NETCACHE_VERIFY=1 in
  /// the environment (see apply_verify_env). Off adds zero work.
  bool verify = false;

  /// Deterministic fault injection (src/faults/); inactive when spec empty.
  FaultConfig faults;

  /// Throws ConfigError (naming the offending key and value) if the
  /// configuration is inconsistent or out of range.
  void validate() const;

  /// Turns `verify` on when the NETCACHE_VERIFY environment variable is set
  /// to anything but "" or "0". Machine construction and the result-cache
  /// key both call it, so a cell is keyed exactly as Machine runs it.
  void apply_verify_env();
};

/// All timing constants used by the protocol models, pre-derived from a
/// MachineConfig. Values at the 10 Gbit/s base rate reproduce the paper's
/// Tables 1-3 exactly (asserted by tests/test_latency_tables.cpp).
struct LatencyParams {
  // Optical signalling capacity.
  double bits_per_cycle;  // rate * 5 ns/pcycle; 50 at 10 Gbit/s

  // Fixed steps shared by all systems (Tables 1-3 row labels).
  Cycles l1_tag_check = 1;
  Cycles l2_tag_check = 4;
  Cycles flight = 1;          // one-way fiber propagation
  Cycles ni_to_l2 = 16;       // network interface into the L2
  Cycles mem_request = 1;     // request message on a contention-free channel
  Cycles dmon_mem_request = 2;
  Cycles reservation = 1;     // DMON reservation mini-slot
  Cycles tuning = 4;          // tunable receiver/transmitter retune
  Cycles write_to_ni = 10;    // move coalesced update from WB to the NI
  Cycles ispeed_write_to_ni = 2;
  Cycles ack = 1;
  Cycles ispeed_l2_write = 8;  // final write into L2 after invalidation

  // Rate-derived message times.
  Cycles block_transfer;        // 64-byte block on one channel (11 @ 10G)
  Cycles dmon_block_transfer;   // + slot alignment (12 @ 10G)
  Cycles invalidate_message;    // address-only broadcast (2 @ 10G)

  // Ring geometry (rate-scaled).
  Cycles ring_roundtrip;
  Cycles ring_read_overhead;

  /// Update message time for `words` dirty 4-byte words, including the
  /// address/mask header. `slotted` adds the variable-slot TDMA alignment
  /// cycle (8 words: 7 on LambdaNet, 8 on NetCache/DMON-U at 10 Gbit/s).
  Cycles update_message(int words, bool slotted) const;

  /// Message time for `bytes` of payload plus a header.
  Cycles payload_cycles(int payload_bits) const;
};

/// Derives the timing constants for `config`.
LatencyParams derive_latencies(const MachineConfig& config);

}  // namespace netcache
