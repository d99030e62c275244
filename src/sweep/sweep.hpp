// Parallel multi-configuration sweep driver.
//
// A paper-size reproduction runs hundreds of independent simulated machines
// (12 apps x 4 systems x parameter sweeps). Each machine is a self-contained
// Engine + Machine + Workload and, by the thread-confinement contract (see
// DESIGN.md section 10), touches no cross-machine mutable state: the
// FrameArena is thread_local and the FailureReporter registry is
// mutex-guarded. The sweep is therefore embarrassingly parallel, and this
// driver fans cells out across a pool of worker threads, each claiming the
// next cell when it goes idle (cell runtimes vary by more than 10x between
// fft- and gauss-class workloads, so static striping would idle most of the
// pool on the tail).
//
// Determinism: every cell is simulated by a thread-confined engine whose
// event order does not depend on wall-clock scheduling, and results are
// returned keyed by submission index. Merging them in canonical order
// reproduces the sequential run bit for bit (wall_seconds excepted — it is
// observability, not a simulated result).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/run_summary.hpp"
#include "src/sim/diagnostics.hpp"

namespace netcache::apps {
class Workload;
}

namespace netcache::sweep {

/// One independent simulation: an application on one configured machine.
struct Cell {
  std::string app;
  SystemKind system = SystemKind::kNetCache;
  int nodes = 16;
  double scale = 1.0;
  bool paper_size = false;
  /// Final say on the machine configuration (L2 size, rate, ring, ...).
  /// Must be safe to call from any worker thread (capture by value).
  std::function<void(MachineConfig&)> tweak;
  /// Watchdog budgets; a deadlocking or runaway cell fails fast with a
  /// SimError report in its CellResult instead of hanging the whole sweep.
  sim::RunLimits limits;
  /// When set, overrides `app`: builds the workload to run (called once, on
  /// the worker thread that executes the cell).
  std::function<std::unique_ptr<apps::Workload>()> make_workload;

  /// "app/system" label for progress and error messages.
  std::string label() const;
};

/// Outcome of one cell. When the run throws (deadlock diagnosis, watchdog
/// trip, bad configuration), `ok` is false, `error` holds the SimError text,
/// and `summary` is default-constructed. Under --isolate, a child that dies
/// instead leaves `error` naming the signal, exit status or timeout, followed
/// by the tail of the child's stderr (the FailureReporter forensics).
struct CellResult {
  core::RunSummary summary;
  bool ok = false;
  /// True when `summary` was served from the result cache (bit-identical to
  /// the run it memoizes) instead of being simulated in this process.
  bool from_cache = false;
  std::string error;
};

/// Knobs for the opt-in process-isolated execution mode (--isolate): each
/// uncached cell runs once, in a forked child, so a crashing or livelocked
/// cell is contained and the grid completes. Default-constructed =
/// in-process.
struct IsolationOptions {
  bool enabled = false;
  /// Wall-clock budget per cell in seconds; expiry SIGKILLs the child and
  /// fails the cell. 0 disables the timeout.
  double cell_timeout_s = 900.0;
  /// When non-empty, one forensics file per failed cell is written here
  /// (the diagnosis + full captured stderr).
  std::string forensics_dir;
};

class ResultCache;

/// Builds the machine and workload for `cell` and runs it to completion on
/// the calling thread. Never throws: failures are captured in the result.
/// Consults the process-wide result cache (shared_cache(), configured via
/// --cache): a hit skips the simulation entirely, a verified miss populates
/// the cache on completion.
CellResult run_cell(const Cell& cell);

/// Same, against an explicit cache (null = always simulate, never store).
CellResult run_cell(const Cell& cell, ResultCache* cache);

/// Worker count used when the caller passes jobs <= 0:
/// std::thread::hardware_concurrency() (at least 1).
int default_jobs();

/// Runs `tasks` (independent closures) across `jobs` worker threads (the
/// calling thread is one of them); blocks until every task has run. Tasks
/// go out in submission order from one shared cursor, each to the next idle
/// worker, so jobs == 1 runs them in order on the calling thread. Workers
/// test stop_requested() before each claim and leave the rest unrun once it
/// is set. Each task executes on exactly one thread, start to finish
/// (engine thread-confinement holds).
void run_tasks(int jobs, std::vector<std::function<void()>>& tasks);

/// Executes a batch of independent cells on a worker pool and returns the
/// results in submission order, regardless of completion order.
class SweepDriver {
 public:
  /// jobs <= 0 selects default_jobs(). jobs == 1 restores the sequential
  /// behavior (same results — the parallel run is deterministic).
  explicit SweepDriver(int jobs = 0);

  /// Queues a cell; returns its index (stable key into results()).
  std::size_t submit(Cell cell);

  std::size_t size() const { return cells_.size(); }
  int jobs() const { return jobs_; }

  /// Selects the execution mode for run() (default: in-process); call before
  /// run().
  void set_isolation(IsolationOptions opts) { isolation_ = std::move(opts); }
  const IsolationOptions& isolation() const { return isolation_; }

  /// Overrides the result cache consulted by run() (default: the process-
  /// wide shared_cache()). nullptr = always simulate, never store.
  void set_result_cache(ResultCache* cache) {
    explicit_cache_ = cache;
    cache_overridden_ = true;
  }

  /// Runs every submitted cell; call once, after all submissions.
  const std::vector<CellResult>& run();

  /// Number of results served from the result cache instead of simulated
  /// (valid after run(); 0 when caching is off).
  std::size_t cache_hits() const;

  /// Valid after run().
  const std::vector<CellResult>& results() const { return results_; }
  const CellResult& result(std::size_t index) const {
    return results_.at(index);
  }
  const Cell& cell(std::size_t index) const { return cells_.at(index); }

 private:
  int jobs_;
  bool ran_ = false;
  IsolationOptions isolation_;
  ResultCache* explicit_cache_ = nullptr;
  bool cache_overridden_ = false;
  std::vector<Cell> cells_;
  std::vector<CellResult> results_;
};

}  // namespace netcache::sweep
