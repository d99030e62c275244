// Process-isolated sweep execution (the --isolate mode).
//
// The in-process driver is fast but fragile: one crashing cell (a simulator
// bug, an unrecovered fault, a pathological big-machine config) aborts the
// whole binary and loses the grid; one livelocked cell hangs it forever.
// The supervisor runs each uncached cell exactly once, in its own forked
// child process — the run_cell entrypoint — so the blast radius of a crash
// is exactly one cell, a wall-clock timeout can SIGKILL a livelock, and the
// grid always completes with the poisoned cells marked failed.
//
// Isolation boundary (documented in DESIGN.md section 14): the child is
// fork()ed, not exec()ed. Cells carry std::function closures (tweak,
// make_workload) that cannot be serialized across an exec boundary; fork
// inherits them for free, and the parent stays single-threaded during
// supervision (its parallelism is the set of child processes), so the
// classic fork-from-a-threaded-process hazards do not apply. The child
// resets signal dispositions, runs exactly one cell, writes one result
// frame to a pipe — the RunSummary in the result cache's %a hex-float
// serialization, bit-identical to an in-process run — and _exit()s.
//
// Failure taxonomy (both classes are final; every cell is simulated by
// deterministic code, so a second run would fail the same way):
//  - in-band failure: the child caught a SimError (deadlock diagnosis,
//    watchdog, bad config) and reported it over the pipe, exiting 0.
//  - process-level failure: the child died on a signal, exited nonzero,
//    produced a missing or garbled frame, or outlived the timeout. The
//    cell's error names the signal, exit status or timeout and carries the
//    tail of the child's stderr (the FailureReporter forensics for crashes).
//
// Successful verified results are stored in the result cache by the parent,
// so retrying a partially failed grid is re-running it with the same
// --cache=DIR: only the failed cells execute again.
#pragma once

#include <vector>

#include "src/sweep/sweep.hpp"

namespace netcache::sweep {

// --- Graceful-stop support (SIGINT/SIGTERM) --------------------------------
// A sweep driver (reproduce, netcache_sim) installs the handlers around
// run(); both execution modes then honor the flag: the threaded pool stops
// popping tasks, the supervisor stops dispatching, SIGKILLs active children,
// and reaps them. Cells that never ran are marked failed with an
// "interrupted" error so callers can print a partial-grid summary and exit
// nonzero. Completed results are untouched (and already in the cache).

/// Installs SIGINT/SIGTERM handlers that set the stop flag. Idempotent.
void install_stop_handlers();
/// Restores the dispositions saved by install_stop_handlers().
void remove_stop_handlers();
/// True once a stop signal arrived (or request_stop was called).
bool stop_requested();
/// The signal that requested the stop, 0 if none.
int stop_signal();
/// Sets the stop flag programmatically (tests; also the signal handler).
void request_stop(int sig);
/// Clears the flag (tests; a process that chooses to continue).
void clear_stop();

/// Runs `cells` under process isolation, one child per uncached cell with at
/// most `jobs` concurrent children dispatched in submission order, and
/// returns results in submission order. `cache` (may be null) is consulted
/// before dispatch and populated by the parent after harvest — children
/// never touch it. Called by SweepDriver::run(); callable directly by tests.
std::vector<CellResult> run_supervised(const std::vector<Cell>& cells,
                                       int jobs,
                                       const IsolationOptions& opts,
                                       ResultCache* cache);

}  // namespace netcache::sweep
