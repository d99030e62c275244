// Persistent, content-addressed cache for sweep cell results.
//
// A sweep cell is a pure function of its configuration: the simulator is
// deterministic (same config + seed => bit-identical RunSummary at any
// --jobs width), so re-simulating an unchanged cell is wasted wall-clock.
// This cache memoizes that function on disk. The key is a 128-bit FNV-1a
// fingerprint over a canonical text description of everything the result
// depends on:
//
//   - the simulator version fingerprint (git HEAD + dirty-diff hash +
//     compile-time config hash): any source change invalidates every entry,
//     so a stale summary is structurally unservable, and all binaries built
//     from one tree share one fingerprint — the first nightly bench to run
//     a (app, system, config) cell pays, every later bench hits;
//   - the application id and problem size (app, nodes, scale, paper_size);
//   - the fully resolved MachineConfig (the cell's tweak applied to the
//     defaults, then serialized field by field — covering seed, verify and
//     the whole fault spec, so verified and fault-injected runs key apart
//     from plain ones);
//   - the RunLimits watchdog budgets.
//
// Cells built from a custom make_workload closure (traces, synthetic
// patterns, test harness workloads) have no serializable identity and are
// never cached.
//
// On-disk format: one file per key, <keyhex>.ncr, written to a temp name
// and atomically rename()d so concurrent writers (--jobs=8 on one cache
// dir, or two bench binaries racing in one nightly) can never expose a
// torn entry. Entries carry the full key description and a payload
// checksum: a fingerprint collision or a corrupted/truncated file is
// detected on read and treated as a miss, never an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/core/run_summary.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache::sweep {

/// Monotone counters over one ResultCache's lifetime. Thread-safe: sweep
/// workers hit one shared cache concurrently.
struct CacheStats {
  std::uint64_t hits = 0;        // entry found, verified, deserialized
  std::uint64_t misses = 0;      // no entry / corrupt / version mismatch
  std::uint64_t stores = 0;      // entries written
  std::uint64_t skips = 0;       // uncacheable cells (custom workloads)
  std::uint64_t store_errors = 0;  // I/O failures while writing (non-fatal)
};

/// The running build's version fingerprint: "git HEAD[+dirty diff hash]" +
/// a compile-time configuration hash (compiler id, build sizes, timing-wheel
/// geometry). Stable across binaries built from one tree; different for any
/// source edit.
const std::string& version_fingerprint();

class ResultCache {
 public:
  /// Opens (creating if needed) the cache at `dir`. `version` defaults to
  /// the build's fingerprint; tests inject synthetic versions to prove a
  /// fingerprint change invalidates every entry.
  explicit ResultCache(std::string dir, std::string version = {});

  /// False for cells whose workload comes from a make_workload closure:
  /// they have no serializable identity.
  static bool cacheable(const Cell& cell);

  /// Canonical key description for `cell` under `version` — the exact text
  /// the key fingerprints. Deterministic: field order is fixed.
  static std::string key_description(const Cell& cell,
                                     const std::string& version);

  /// 32-hex-digit content key for `cell`, or "" when not cacheable(cell).
  std::string key_for(const Cell& cell) const;

  /// On hit, fills `out` with the stored summary (bit-identical to the run
  /// that produced it) and returns true. Any problem — absent entry, torn
  /// write, checksum mismatch, key collision, version skew — is a miss.
  bool lookup(const Cell& cell, core::RunSummary* out);

  /// Persists `summary` for `cell`. Failed or unverified runs must not be
  /// passed in (callers only store verified results). I/O errors are
  /// counted and swallowed: a read-only cache dir degrades to a no-op.
  void store(const Cell& cell, const core::RunSummary& summary);

  /// Snapshot of the counters (safe to call while workers run).
  CacheStats stats() const;

  const std::string& dir() const { return dir_; }
  const std::string& version() const { return version_; }

 private:
  std::string entry_path(const std::string& key) const;

  std::string dir_;
  std::string version_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> skips_{0};
  std::atomic<std::uint64_t> store_errors_{0};
};

/// The process-wide cache consulted by run_cell(): the one opened by the last
/// configure_shared_cache(dir) (--cache=DIR), or null (caching off) before
/// that and after disable_shared_cache().
ResultCache* shared_cache();
void configure_shared_cache(const std::string& dir);
void disable_shared_cache();

}  // namespace netcache::sweep
