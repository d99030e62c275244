// Replacement bookkeeping for set-associative caches and the ring cache.
#pragma once

#include <cstdint>
#include <span>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace netcache::cache {

/// Per-line usage metadata consulted by the replacement policies.
struct LineUsage {
  Cycles last_use = 0;      // LRU
  std::uint64_t uses = 0;   // LFU
  Cycles inserted_at = 0;   // FIFO
};

/// Chooses a victim index into `usage` (one entry per valid candidate line)
/// under `policy`. Invalid (empty) lines should be preferred by the caller
/// before consulting this function. Random replacement draws one number.
int pick_victim(RingReplacement policy, std::span<const LineUsage> usage,
                Rng& rng);

}  // namespace netcache::cache
