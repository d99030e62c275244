// Shared command-line surface for every sweep front end.
//
// bench_main, netcache_sim, and netcache_sweepd all drive the same sweep
// machinery (worker pool, result cache, supervised isolation) and used to
// re-implement the same seven flags with drifting validation. This module is
// the single definition: one parser consuming "--name=value" arguments, one
// cache-flag precedence rule, one cache-traffic summary line, and one usage
// block — so the three binaries stay byte-compatible in how a grid is
// configured.
#pragma once

#include <string>

#include "src/sweep/sweep.hpp"

namespace netcache::sweep {

/// The flags every sweep-driving binary shares. Zero-initialized fields mean
/// "unset — resolve the default lazily" (default_jobs(), the
/// NETCACHE_SWEEP_CACHE environment variable).
struct SweepFlags {
  int jobs = 0;           // 0 = default_jobs()
  std::string cache_dir;  // empty = NETCACHE_SWEEP_CACHE
  bool no_cache = false;
  IsolationOptions isolation = default_isolation();
};

/// Outcome of offering one argv entry to the shared parser.
enum class FlagParse {
  kNotSweepFlag,  // not ours — the caller's own parser gets it
  kConsumed,      // recognized and applied to *flags
  kBadValue,      // recognized but malformed; *error holds the diagnosis
};

/// Tries to consume one argument as a shared sweep flag: --jobs=N,
/// --cache=DIR, --no-cache, --isolate, --cell-timeout=S, --cell-retries=N,
/// --forensics=DIR.
FlagParse parse_sweep_flag(const char* arg, SweepFlags* flags,
                           std::string* error);

/// Resolved worker count: flags.jobs or default_jobs().
int resolved_jobs(const SweepFlags& flags);

/// Applies the cache flags to the process-wide shared cache:
/// --no-cache beats --cache beats the NETCACHE_SWEEP_CACHE environment
/// variable (which shared_cache() reads lazily when neither flag is given).
void apply_cache_flags(const SweepFlags& flags);

/// One-line "cache: H hit(s), M miss(es), ..." traffic summary for the
/// shared cache (trailing newline included), or "" when no cache is
/// configured. Lets a re-run after a partial failure show that healthy cells
/// were hits, and surfaces store errors (read-only/full dir) as logged skips.
std::string format_cache_stats();

/// Usage text for the shared flags (two-space indent, one flag per line,
/// trailing newline) for embedding in a binary's --help output.
const char* sweep_flags_help();

}  // namespace netcache::sweep
