// Shared infrastructure for the per-figure/per-table benchmark binaries:
// cell submission into the parallel sweep driver, a simulate() helper for
// one-off runs, and an aligned table printer that reproduces the paper's
// rows/series.
//
// A bench binary declares its whole simulation grid up front (a SweepPlan
// submitting cells), bench_main fans the cells out across worker threads
// (--jobs=N; 1 restores the sequential behavior), and the google-benchmark
// bodies then read the finished summaries and fold them into tables. Results are keyed by cell, so tables are bit-identical to a
// sequential run regardless of which worker finished first.
#pragma once

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache::bench {

struct SimOptions {
  int nodes = 16;
  double scale = 1.0;
  bool paper_size = false;
  /// Final say on the machine configuration (L2 size, rate, ring, ...).
  std::function<void(MachineConfig&)> tweak;
  /// Watchdog budgets for the run; a regression that deadlocks or livelocks
  /// a benchmark workload fails fast with a report instead of hanging CI.
  sim::RunLimits limits;
  /// Overrides the app name: custom workload factory (e.g. synthetic
  /// patterns). Must be thread-safe to call from a sweep worker.
  std::function<std::unique_ptr<apps::Workload>()> make_workload;
};

/// Builds a machine, runs `app` on it, and returns the summary — on the
/// calling thread, outside the sweep. Aborts if the run fails or the
/// workload's functional verification fails.
core::RunSummary simulate(const std::string& app, SystemKind system,
                          const SimOptions& opts = {});

/// Handle to a cell submitted to this binary's sweep. summary() is valid
/// once bench_main has run the sweep (i.e. inside benchmark bodies).
class CellRef {
 public:
  CellRef() = default;
  const core::RunSummary& summary() const;

  /// True when the cell completed. Under --isolate a failed (crashed, timed
  /// out, quarantined) cell leaves the grid running; failure-aware folds
  /// check ok() and mark the table row failed instead of calling summary()
  /// (which aborts on a failed cell).
  bool ok() const;
  /// Failure diagnosis (error text + harvested forensics tail), "" when ok.
  const std::string& error() const;

 private:
  friend CellRef submit(const std::string&, SystemKind, const SimOptions&);
  explicit CellRef(std::size_t index) : index_(index) {}
  std::size_t index_ = static_cast<std::size_t>(-1);
};

/// Queues one (app, system, config) simulation on this binary's sweep.
/// Call from a SweepPlan callback.
CellRef submit(const std::string& app, SystemKind system,
               const SimOptions& opts = {});

/// Registers a planner that bench_main invokes (in registration order)
/// before running the sweep and the benchmarks:
///   static nb::SweepPlan plan([] { ... nb::submit(...); ... });
class SweepPlan {
 public:
  explicit SweepPlan(std::function<void()> plan);
};

/// Ordered results table printed after the google-benchmark output.
/// set() is thread-safe: concurrent sweep workers may fold results into one
/// shared table directly.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void set(const std::string& row, const std::string& column, double value);

  /// Marks one cell failed: renders as "failed" in print() and to_csv()
  /// (and never as a silent zero). Used by failure-aware folds under
  /// --isolate so a partially failed grid still produces its table.
  void set_failed(const std::string& row, const std::string& column);

  void print() const;

  /// CSV rendering of the same table (header row, then one line per row).
  std::string to_csv() const;

  /// Writes to_csv() to <dir>/<sanitized-title>.csv.
  void write_csv_to(const std::string& dir) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::string> row_order_;
  std::map<std::string, std::map<std::string, double>> cells_;
  std::map<std::string, std::map<std::string, bool>> failed_;
  mutable std::mutex mutex_;
};

/// Standard main body: run the declared sweep across worker threads, run
/// benchmarks (which consume the cached summaries), then print the collected
/// tables. If the NETCACHE_BENCH_CSV_DIR environment variable is set, each
/// table is also written there as <sanitized-title>.csv. `--jobs=N` sets
/// the worker count (default: hardware threads); 1 runs sequentially.
/// `--cache=DIR` points the sweep result cache at DIR (default: no cache).
/// When caching is active, a hit/miss/store/skip line follows the sweep
/// summary.
/// `--isolate` runs every cell in its own supervised child process
/// (`--cell-timeout=S`, `--cell-retries=N`, `--forensics=DIR` tune it): a
/// crashed or hung cell is quarantined with its forensics printed, the
/// healthy cells complete (and land in the cache when one is set, so a
/// re-run resumes), and the binary exits nonzero without running the
/// benchmark bodies. SIGINT/SIGTERM stop the sweep gracefully with a
/// partial-grid summary and exit 128+signal.
int bench_main(int argc, char** argv,
               const std::vector<const Table*>& tables);

/// The twelve applications in the paper's Table 4 order.
const std::vector<std::string>& all_apps();

/// Worker count bench_main will use (after --jobs parsing).
int bench_jobs();

// Microbenchmark probes for the latency tables (contention-free means over
// staggered transactions, as in the paper's Tables 1-3). Thread-safe: each
// probe builds its own machine, so table benches fan them out via
// sweep::run_tasks.
double mean_cold_read_latency(SystemKind kind);
double mean_ring_hit_latency();
double mean_update_latency(SystemKind kind);

}  // namespace netcache::bench

/// Declares main() for a bench binary whose tables are listed in `...`.
#define NETCACHE_BENCH_MAIN(...)                                       \
  int main(int argc, char** argv) {                                    \
    return netcache::bench::bench_main(argc, argv, {__VA_ARGS__});     \
  }
