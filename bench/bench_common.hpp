// Shared infrastructure for the bench binaries: deduplicated cell submission
// into the parallel sweep driver, a simulate() helper for one-off runs, an
// aligned table printer that reproduces the paper's rows/series, and the
// contention-free latency probes behind Tables 1-3.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/sweep/sweep.hpp"

namespace netcache::bench {

/// Runs `cell` on the calling thread, outside any sweep, and returns its
/// summary. Aborts if the run fails or the workload's functional
/// verification fails.
core::RunSummary simulate(const sweep::Cell& cell);

/// Submits each distinct cell of `cells` to `driver` once and returns, for
/// every cell in order, the driver index whose result it reads. Two cells
/// are the same when their ResultCache::key_description matches, so tweaks
/// that resolve to one machine share a run. make_workload cells have no key
/// and are always submitted on their own.
std::vector<std::size_t> submit_distinct(const std::vector<sweep::Cell>& cells,
                                         sweep::SweepDriver& driver);

/// Ordered results table. set() is thread-safe: concurrent sweep workers may
/// fold results into one shared table directly.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void set(const std::string& row, const std::string& column, double value);

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
  mutable std::mutex mutex_;
};

// Microbenchmark probes for the latency tables (contention-free means over
// staggered transactions, as in the paper's Tables 1-3). Each probe builds
// its own machine.
double mean_cold_read_latency(SystemKind kind);
double mean_ring_hit_latency();
double mean_update_latency(SystemKind kind);

}  // namespace netcache::bench
