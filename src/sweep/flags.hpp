// Shared command-line surface for every sweep front end.
//
// reproduce and netcache_sim both drive the same sweep machinery (worker
// pool, result cache, supervised isolation). This module is the single
// definition of their shared flags: one parser consuming "--name=value"
// arguments, one cache-traffic summary line, and one usage block, so the
// binaries configure a grid the same way.
#pragma once

#include <string>

#include "src/sweep/sweep.hpp"

namespace netcache::sweep {

/// The flags every sweep-driving binary shares. Defaults: default_jobs()
/// workers, no result cache, in-process execution.
struct SweepFlags {
  int jobs = 0;           // 0 = default_jobs()
  std::string cache_dir;  // empty = no result cache
  IsolationOptions isolation;
};

/// Largest --cell-timeout accepted, in seconds (about 11.6 days). The
/// deadline is now + the timeout in steady_clock's 64-bit nanosecond count;
/// 1e6 s fits it with a wide margin, while values near 1e10 s overflow it
/// into a past deadline.
inline constexpr double kMaxCellTimeoutS = 1e6;

/// Outcome of offering one argv entry to the shared parser.
enum class FlagParse {
  kNotSweepFlag,  // not ours — the caller's own parser gets it
  kConsumed,      // recognized and applied to *flags
  kBadValue,      // recognized but malformed; *error holds the diagnosis
};

/// Tries to consume one argument as a shared sweep flag: --jobs=N,
/// --cache=DIR, --isolate, --cell-timeout=S, --forensics=DIR.
FlagParse parse_sweep_flag(const char* arg, SweepFlags* flags,
                           std::string* error);

/// Opens the process-wide shared cache at flags.cache_dir (--cache=DIR);
/// without --cache, caching stays off.
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
