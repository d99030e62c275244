// Synthetic memory-reference workloads for protocol characterization:
// controlled sharing patterns that isolate the behaviours the twelve real
// applications mix together (uniform streaming, hot shared sets,
// producer-consumer phases).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/apps/workload.hpp"

namespace netcache::apps {

struct SyntheticSpec {
  /// "uniform"  — reads uniformly over the whole array;
  /// "hot"      — 90% of reads in a ring-cache-sized hot region;
  /// "prodcons" — write own chunk, barrier, read the next node's chunk;
  /// "stream"   — disjoint sequential streaming (no sharing at all).
  std::string pattern = "uniform";
  int accesses_per_node = 20000;
  /// Fraction of accesses that are writes (always to the node's own
  /// partition, so the workload stays data-race-free).
  double write_fraction = 0.25;
  std::size_t array_bytes = 1 << 20;
  std::uint64_t seed = 0xFEEDFACEull;
};

/// Throws ConfigError when spec.pattern is none of the four above.
std::unique_ptr<Workload> make_synthetic(const SyntheticSpec& spec);

}  // namespace netcache::apps
