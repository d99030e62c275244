#include "src/common/config.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "src/common/sim_error.hpp"
#include "src/faults/faults.hpp"

namespace netcache {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNetCache: return "NetCache";
    case SystemKind::kNetCacheNoRing: return "NetCache-NoRing";
    case SystemKind::kLambdaNet: return "LambdaNet";
    case SystemKind::kDmonUpdate: return "DMON-U";
    case SystemKind::kDmonInvalidate: return "DMON-I";
  }
  return "?";
}

const char* to_string(RingReplacement policy) {
  switch (policy) {
    case RingReplacement::kRandom: return "Random";
    case RingReplacement::kLfu: return "LFU";
    case RingReplacement::kLru: return "LRU";
    case RingReplacement::kFifo: return "FIFO";
  }
  return "?";
}

const char* to_string(RingAssociativity assoc) {
  switch (assoc) {
    case RingAssociativity::kFullyAssociative: return "Fully";
    case RingAssociativity::kDirectMapped: return "Direct";
  }
  return "?";
}

namespace {

// Rejection helper: every bad knob reports its key and value so CLI drivers
// and sweep harnesses can print exactly what to fix and exit nonzero.
template <typename T>
void reject_unless(bool ok, const char* key, T value, const char* why) {
  if (!ok) throw ConfigError(key, std::to_string(value), why);
}

}  // namespace

void MachineConfig::apply_verify_env() {
  // Environment opt-in so CI can verify a whole test suite without
  // plumbing a flag through every driver.
  const char* env = std::getenv("NETCACHE_VERIFY");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    verify = true;
  }
}

void MachineConfig::validate() const {
  reject_unless(nodes > 0, "nodes", nodes, "need at least one node");
  reject_unless(nodes <= kMaxNodes, "nodes", nodes,
                "at most 256 nodes: a private address holds its node id in "
                "8 bits");
  reject_unless(is_pow2(static_cast<std::uint64_t>(l1.block_bytes)),
                "l1.block_bytes", l1.block_bytes,
                "cache block sizes must be powers of two");
  reject_unless(is_pow2(static_cast<std::uint64_t>(l2.block_bytes)),
                "l2.block_bytes", l2.block_bytes,
                "cache block sizes must be powers of two");
  reject_unless(l2.block_bytes % l1.block_bytes == 0, "l2.block_bytes",
                l2.block_bytes, "L2 block must be a multiple of the L1 block");
  reject_unless(l2.block_bytes <= 32 * kWordBytes, "l2.block_bytes",
                l2.block_bytes,
                "L2 block wider than 32 words (128 bytes) does not fit the "
                "write buffer's 32-bit dirty-word mask");
  reject_unless(l1.associativity > 0, "l1.associativity", l1.associativity,
                "a cache set needs at least one way");
  reject_unless(l2.associativity > 0, "l2.associativity", l2.associativity,
                "a cache set needs at least one way");
  reject_unless(l1.size_bytes % (l1.block_bytes * l1.associativity) == 0,
                "l1.size_bytes", l1.size_bytes,
                "L1 geometry does not divide evenly");
  reject_unless(l2.size_bytes % (l2.block_bytes * l2.associativity) == 0,
                "l2.size_bytes", l2.size_bytes,
                "L2 geometry does not divide evenly");
  // The divisibility checks above hold for 0 and negative sizes too.
  reject_unless(l1.sets() > 0, "l1.size_bytes", l1.size_bytes,
                "L1 needs at least one set");
  reject_unless(l2.sets() > 0, "l2.size_bytes", l2.size_bytes,
                "L2 needs at least one set");
  reject_unless(write_buffer_entries > 0, "write_buffer_entries",
                write_buffer_entries, "write buffer cannot be empty");
  reject_unless(mem_block_read_cycles >= 0, "mem_block_read_cycles",
                mem_block_read_cycles, "memory latency cannot be negative");
  reject_unless(gbit_per_s > 0.0, "gbit_per_s", gbit_per_s,
                "transmission rate must be positive");
  reject_unless(ring.block_bytes >= l2.block_bytes &&
                    ring.block_bytes % l2.block_bytes == 0 &&
                    is_pow2(static_cast<std::uint64_t>(ring.block_bytes)),
                "ring.block_bytes", ring.block_bytes,
                "shared cache line must be a power-of-two multiple of the L2 "
                "block (the paper studies 64 and 128 bytes, Section 5.3.2)");
  reject_unless(ring.channels > 0, "ring.channels", ring.channels,
                "ring needs at least one cache channel");
  reject_unless(ring.blocks_per_channel > 0, "ring.blocks_per_channel",
                ring.blocks_per_channel,
                "each cache channel stores at least one block");
  if (system == SystemKind::kNetCache) {
    reject_unless(ring.channels % nodes == 0, "ring.channels", ring.channels,
                  "cache channels must divide evenly among home nodes");
    reject_unless(derive_latencies(*this).ring_roundtrip >= 1, "gbit_per_s",
                  gbit_per_s,
                  "rate too high: the rate-scaled ring round trip rounds to "
                  "under one cycle");
  }
  if (faults.enabled()) {
    reject_unless(faults.retry_budget > 0, "faults.retry_budget",
                  faults.retry_budget, "fault recovery needs a retry budget");
    reject_unless(faults.retry_backoff > 0, "faults.retry_backoff",
                  faults.retry_backoff,
                  "retry backoff must advance virtual time");
    if (!faults.recovery && !verify) {
      throw ConfigError("faults.recovery", "false",
                        "fault injection with recovery disabled produces "
                        "silently-wrong protocol state unless the coherence "
                        "oracle is on; set verify (--verify) too");
    }
    // Grammar + per-system applicability of every spec item.
    faults::validate_spec(*this);
  }
}

Cycles LatencyParams::payload_cycles(int payload_bits) const {
  return static_cast<Cycles>(
      std::ceil(static_cast<double>(payload_bits) / bits_per_cycle));
}

Cycles LatencyParams::update_message(int words, bool slotted) const {
  // Payload: `words` 4-byte words + 64-bit address/word-mask header.
  Cycles t = payload_cycles(words * 32 + 64);
  return slotted ? t + 1 : t;
}

LatencyParams derive_latencies(const MachineConfig& config) {
  LatencyParams lp{};
  lp.bits_per_cycle = config.gbit_per_s * 5.0;  // 5 ns per pcycle
  lp.block_transfer = lp.payload_cycles(config.l2.block_bytes * 8);
  lp.dmon_block_transfer = lp.block_transfer + 1;  // slot alignment
  lp.invalidate_message = lp.payload_cycles(96);   // address + type
  // The paper keeps ring capacity constant across rates by scaling fiber
  // length inversely with the transmission rate.
  lp.ring_roundtrip = static_cast<Cycles>(std::llround(
      config.ring.base_roundtrip_cycles * 10.0 / config.gbit_per_s));
  lp.ring_read_overhead = config.ring.read_overhead_cycles;
  return lp;
}

}  // namespace netcache
