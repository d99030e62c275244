// The result of one simulated run, with the derived metrics the paper's
// figures are built from.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"

namespace netcache::core {

struct RunSummary {
  std::string system;
  std::string app;
  int nodes = 0;
  Cycles run_time = 0;
  bool verified = false;

  NodeStats totals;

  // Derived metrics (captured from MachineStats at end of run).
  double shared_cache_hit_rate = 0.0;
  double avg_read_latency = 0.0;
  double avg_l2_miss_latency = 0.0;
  double read_latency_fraction = 0.0;
  double sync_fraction = 0.0;

  // Read-latency distribution (bucketed; upper bounds of the quantile
  // buckets).
  Cycles read_latency_p50 = 0;
  Cycles read_latency_p90 = 0;
  Cycles read_latency_p99 = 0;

  std::uint64_t events = 0;

  // Robustness layers (all-zero defaults when the layer is off, so summaries
  // of plain runs are byte-identical to builds that predate them).
  bool verify_enabled = false;
  OracleStats oracle;
  bool faults_enabled = false;
  FaultStats faults;

  // Timing-wheel occupancy for this run (deterministic, like events): how
  // many scheduled events landed in an O(1) wheel bucket vs the far-future
  // overflow heap. Overflow traffic is the signal for re-sizing the wheel.
  // The wheel has a fixed size, so wheel_regrows is always 0; the field and
  // its serialized key stay so recorded summaries and digests still read.
  std::uint64_t wheel_pushes = 0;
  std::uint64_t overflow_pushes = 0;
  std::uint64_t wheel_regrows = 0;

  // Snoop-delivery host-cost counters (sharer tracking, DESIGN.md section
  // 16). Excluded from serialization and format_summary: they measure host
  // work, not the simulated machine.
  SnoopStats snoop;

  // Engine throughput (wall-clock observability; not part of the simulated
  // results, so determinism comparisons should ignore these).
  double wall_seconds = 0.0;
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
  double sim_cycles_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(run_time) / wall_seconds : 0;
  }
};

/// One-line human-readable summary.
std::string format_summary(const RunSummary& s);

/// One-line engine-throughput summary ("engine: ..."): events executed,
/// wall-clock seconds, events/sec and simulated cycles/sec. Kept separate
/// from format_summary so bit-identical output comparisons can filter it.
std::string format_throughput(const RunSummary& s);

/// One-line snoop-delivery summary ("snoop: ..."), or "" when the run had
/// no deliveries. Kept separate from format_summary because the counters
/// describe host work, not simulated results.
std::string format_snoop(const RunSummary& s);

/// Serializes every field of `s` except the SnoopStats block (including the
/// read-latency histogram and the oracle/fault counters) to a line-oriented
/// text record. Doubles are written as C99 hex-floats, so
/// deserialize_summary() reproduces the summary bit for bit — the contract
/// the sweep result cache depends on.
std::string serialize_summary(const RunSummary& s);

/// Inverse of serialize_summary(). Returns false (leaving `out` in an
/// unspecified state) on any malformed, truncated, or version-mismatched
/// input; the result cache treats that as a miss, never an error.
bool deserialize_summary(const std::string& text, RunSummary* out);

}  // namespace netcache::core
