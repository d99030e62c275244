// Supervised process-isolated sweep execution: a crashing cell must fail
// alone (with harvested forensics) while the rest of the grid completes, a
// livelocked cell must die on the wall-clock timeout, every cell must run in
// exactly one child, a partially failed grid must resume from the result
// cache re-executing only the failures, and a clean isolated grid must
// reproduce the threaded run bit for bit.
#include "src/sweep/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/apps/workload.hpp"
#include "src/core/run_summary.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/sweep.hpp"

#include "bench/bench_common.hpp"

namespace netcache {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory (forensics, cache, markers), removed on
/// teardown. Also clears any stop flag a previous test may have left set.
class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sweep::clear_stop();
    dir_ = fs::temp_directory_path() /
           ("netcache-supervisor-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    sweep::clear_stop();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

sweep::Cell fast_cell(const std::string& app = "sor",
                      SystemKind system = SystemKind::kNetCache) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = system;
  cell.nodes = 4;
  cell.scale = 0.15;
  return cell;
}

/// A cell whose simulation fires a crash (hang) fault mid-run: in isolate
/// mode the child process aborts (livelocks) exactly like a real simulator
/// bug would.
sweep::Cell faulted_cell(const char* spec) {
  sweep::Cell cell = fast_cell();
  std::string s = spec;
  cell.tweak = [s](MachineConfig& cfg) {
    cfg.faults.spec = s;
    cfg.faults.seed = 1;
  };
  return cell;
}

sweep::IsolationOptions isolation(double timeout_s = 60.0) {
  sweep::IsolationOptions opts;
  opts.enabled = true;
  opts.cell_timeout_s = timeout_s;
  return opts;
}

std::string summary_bytes_sans_wall(core::RunSummary s) {
  // wall_seconds is observability, not a simulated result — the only field
  // allowed to differ between execution modes.
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

TEST_F(SupervisorTest, CrashCellFailsAloneWhileTheGridCompletes) {
  std::vector<sweep::Cell> cells = {
      faulted_cell("crash:1"),
      fast_cell("sor", SystemKind::kNetCache),
      fast_cell("sor", SystemKind::kLambdaNet),
  };
  sweep::IsolationOptions opts = isolation();
  opts.forensics_dir = (dir_ / "forensics").string();

  std::vector<sweep::CellResult> results =
      sweep::run_supervised(cells, 2, opts, nullptr);
  ASSERT_EQ(results.size(), 3u);

  // The poisoned cell fails with its crash forensics harvested: the error
  // names the signal and carries the FailureReporter output.
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("signal 6"), std::string::npos)
      << results[0].error;
  EXPECT_NE(results[0].error.find("fault-crash"), std::string::npos)
      << results[0].error;

  // The healthy cells complete and match an in-process run bit for bit.
  for (std::size_t i = 1; i < cells.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    ASSERT_TRUE(results[i].summary.verified);
    sweep::CellResult direct = sweep::run_cell(cells[i], nullptr);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(summary_bytes_sans_wall(results[i].summary),
              summary_bytes_sans_wall(direct.summary));
  }

  // One forensics file for the one failed cell, carrying the
  // FailureReporter output.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(opts.forensics_dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].filename().string(), "cell-000-sor-NetCache.log");
  std::FILE* f = std::fopen(files[0].string().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body(1 << 16, '\0');
  body.resize(std::fread(body.data(), 1, body.size(), f));
  std::fclose(f);
  EXPECT_NE(body.find("fault-crash"), std::string::npos);
  EXPECT_NE(body.find("signal 6"), std::string::npos) << body;
}

TEST_F(SupervisorTest, TimeoutKillsALivelockedCell) {
  // The companion cell fails in-band within milliseconds (watchdog trip) —
  // fast enough to settle inside the 2 s budget even under a sanitizer, yet
  // still proving the hang's SIGKILL is not a grid-wide event: its frame
  // arrives intact while the livelocked sibling burns its wall clock.
  sweep::Cell companion = fast_cell();
  companion.limits.max_cycles = 100;
  std::vector<sweep::Cell> cells = {
      faulted_cell("hang:1"),
      companion,
  };
  std::vector<sweep::CellResult> results =
      sweep::run_supervised(cells, 2, isolation(/*timeout_s=*/2.0), nullptr);

  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("timed out"), std::string::npos)
      << results[0].error;

  // In-band diagnosis, not a process failure: the companion was untouched
  // by the supervisor's kill.
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error.find("timed out"), std::string::npos)
      << results[1].error;
  EXPECT_EQ(results[1].error.find("signal"), std::string::npos)
      << results[1].error;
  EXPECT_NE(results[1].error.find("max_cycles"), std::string::npos)
      << results[1].error;
}

TEST_F(SupervisorTest, ACrashingCellRunsInExactlyOneChild) {
  // Every child that builds this workload appends a line to the marker and
  // aborts. make_workload runs in the child (the parent only hashes
  // configs), so the marker counts the children forked for the cell across
  // the fork boundary. Default options: the crash is final.
  const std::string marker = (dir_ / "children").string();
  sweep::Cell crashing = fast_cell();
  crashing.make_workload = [marker]() -> std::unique_ptr<apps::Workload> {
    std::FILE* f = std::fopen(marker.c_str(), "ab");
    if (f != nullptr) {
      std::fputs("child\n", f);
      std::fclose(f);
    }
    std::abort();
  };
  sweep::IsolationOptions opts;
  opts.enabled = true;

  std::vector<sweep::CellResult> results =
      sweep::run_supervised({crashing}, 1, opts, nullptr);

  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("signal 6"), std::string::npos)
      << results[0].error;
  std::FILE* f = std::fopen(marker.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string lines(256, '\0');
  lines.resize(std::fread(lines.data(), 1, lines.size(), f));
  std::fclose(f);
  EXPECT_EQ(lines, "child\n");
}

TEST_F(SupervisorTest, CleanExitWithoutAFrameIsAProcessFailure) {
  // The result frame is the parent's only evidence that a child which
  // exited 0 really ran its cell. This child builds no workload: it exits 0
  // before the frame is written, so the frame check alone must catch it.
  sweep::Cell silent = fast_cell();
  silent.make_workload = []() -> std::unique_ptr<apps::Workload> { _exit(0); };
  std::vector<sweep::CellResult> results = sweep::run_supervised(
      {silent, fast_cell("sor", SystemKind::kLambdaNet)}, 2, isolation(),
      nullptr);

  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("exited with status 0"), std::string::npos)
      << results[0].error;

  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_TRUE(results[1].summary.verified);
}

TEST_F(SupervisorTest, InBandFailuresCarryTheChildsDiagnosis) {
  // A watchdog trip is caught by the child and reported over the pipe — a
  // diagnosed simulation outcome, not a process failure: the error is the
  // child's SimError text, with no signal or exit status in it.
  sweep::Cell cell = fast_cell();
  cell.limits.max_cycles = 100;  // far below the ~100k-cycle run
  std::vector<sweep::CellResult> results =
      sweep::run_supervised({cell}, 1, isolation(), nullptr);

  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("max_cycles"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(results[0].error.find("signal"), std::string::npos)
      << results[0].error;
}

TEST_F(SupervisorTest, ResumeReExecutesOnlyTheFailedCells) {
  sweep::ResultCache cache((dir_ / "cache").string());
  std::vector<sweep::Cell> cells = {
      fast_cell("sor", SystemKind::kNetCache),
      faulted_cell("crash:1"),
      fast_cell("sor", SystemKind::kLambdaNet),
  };

  auto run_grid = [&] {
    sweep::SweepDriver driver(2);
    for (const sweep::Cell& cell : cells) driver.submit(cell);
    driver.set_isolation(isolation());
    driver.set_result_cache(&cache);
    driver.run();
    return driver;
  };

  sweep::SweepDriver first = run_grid();
  EXPECT_EQ(first.cache_hits(), 0u);
  ASSERT_TRUE(first.result(0).ok) << first.result(0).error;
  EXPECT_FALSE(first.result(1).ok);
  ASSERT_TRUE(first.result(2).ok) << first.result(2).error;
  EXPECT_EQ(cache.stats().stores, 2u);

  // Same grid again: the healthy cells are served from the cache (no child
  // is even forked for them); only the poisoned cell re-executes.
  sweep::SweepDriver second = run_grid();
  EXPECT_EQ(second.cache_hits(), 2u);
  EXPECT_TRUE(second.result(0).from_cache);
  EXPECT_FALSE(second.result(1).ok);
  EXPECT_FALSE(second.result(1).from_cache);
  EXPECT_TRUE(second.result(2).from_cache);
  EXPECT_NE(second.result(1).error.find("fault-crash"), std::string::npos)
      << second.result(1).error;
  EXPECT_EQ(core::serialize_summary(first.result(0).summary),
            core::serialize_summary(second.result(0).summary));
}

TEST_F(SupervisorTest, CleanGridIsBitIdenticalToTheThreadedDriver) {
  auto build = [](sweep::SweepDriver* driver) {
    for (const char* app : {"sor", "fft"}) {
      for (SystemKind kind :
           {SystemKind::kNetCache, SystemKind::kLambdaNet}) {
        driver->submit(fast_cell(app, kind));
      }
    }
  };

  sweep::SweepDriver threaded(4);
  build(&threaded);
  threaded.set_result_cache(nullptr);

  sweep::SweepDriver isolated(4);
  build(&isolated);
  isolated.set_result_cache(nullptr);
  isolated.set_isolation(isolation());

  const auto& a = threaded.run();
  const auto& b = isolated.run();
  ASSERT_EQ(a.size(), b.size());

  bench::Table ta("mode check", {"NetCache", "LambdaNet"});
  bench::Table tb("mode check", {"NetCache", "LambdaNet"});
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(summary_bytes_sans_wall(a[i].summary),
              summary_bytes_sans_wall(b[i].summary))
        << threaded.cell(i).label();
    ta.set(threaded.cell(i).app, to_string(threaded.cell(i).system),
           static_cast<double>(a[i].summary.run_time));
    tb.set(isolated.cell(i).app, to_string(isolated.cell(i).system),
           static_cast<double>(b[i].summary.run_time));
  }
  EXPECT_EQ(ta.to_csv(), tb.to_csv());
}

TEST_F(SupervisorTest, StopFlagMarksSupervisedCellsInterrupted) {
  sweep::request_stop(SIGINT);
  EXPECT_TRUE(sweep::stop_requested());
  EXPECT_EQ(sweep::stop_signal(), SIGINT);

  std::vector<sweep::CellResult> results = sweep::run_supervised(
      {fast_cell(), fast_cell("sor", SystemKind::kLambdaNet)}, 2, isolation(),
      nullptr);
  for (const sweep::CellResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("interrupted"), std::string::npos) << r.error;
  }

  sweep::clear_stop();
  EXPECT_FALSE(sweep::stop_requested());
  EXPECT_EQ(sweep::stop_signal(), 0);
}

TEST_F(SupervisorTest, StopFlagMarksThreadedCellsInterrupted) {
  sweep::request_stop(SIGTERM);
  sweep::SweepDriver driver(2);
  driver.submit(fast_cell());
  driver.submit(fast_cell("sor", SystemKind::kLambdaNet));
  driver.set_result_cache(nullptr);

  const auto& results = driver.run();
  for (const sweep::CellResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("interrupted"), std::string::npos) << r.error;
  }
  sweep::clear_stop();
}

TEST_F(SupervisorTest, SigtermMidGridLeavesNoOrphansNoTempFilesAndResumes) {
  // Signal-driven shutdown, end to end: a SIGTERM (delivered here as the
  // stop flag the handler would set) lands while the grid's hang cell holds
  // the single worker slot. The supervisor must kill and reap every child,
  // leave no half-written cache temp file, and a clean re-run must serve
  // the completed prefix from the cache.
  const fs::path cache_dir = dir_ / "cache";
  sweep::ResultCache cache(cache_dir.string());
  std::vector<sweep::Cell> cells = {
      fast_cell("sor", SystemKind::kNetCache),
      faulted_cell("hang:1"),
      fast_cell("sor", SystemKind::kLambdaNet),
  };

  std::vector<sweep::CellResult> results;
  const auto grid_start = std::chrono::steady_clock::now();
  std::thread grid([&] {
    results = sweep::run_supervised(cells, 1, isolation(/*timeout_s=*/60.0),
                                    &cache);
  });
  // Wait for cell 0 to complete (its store is the observable proof), then
  // "SIGTERM" while the hang cell burns its wall clock.
  for (int i = 0; i < 2000 && cache.stats().stores == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(cache.stats().stores, 1u) << "first cell never completed";
  // What one healthy cell costs on this build (sanitizers slow it many
  // times over): the resume's budget is sized from it.
  const double healthy_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - grid_start)
                               .count();
  sweep::request_stop(SIGTERM);
  grid.join();

  // The completed cell kept its result; everything else is interrupted.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("interrupted"), std::string::npos)
      << results[1].error;
  EXPECT_FALSE(results[2].ok);

  // No orphans: every forked child was killed and reaped, so this process
  // has no children left at all.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);

  // No stray temp files: the kill interrupted a run, not a cache write.
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    EXPECT_EQ(entry.path().extension(), ".ncr") << entry.path();
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }

  // Resume: the completed cell is a hit (no child forked for it); the hang
  // cell now runs against a short timeout and fails; the
  // never-started cell executes. The budget is a few healthy cells' worth,
  // so the healthy cell fits under an instrumented build too.
  sweep::clear_stop();
  const double resume_timeout_s = std::max(1.0, 4 * healthy_s);
  std::vector<sweep::CellResult> resumed = sweep::run_supervised(
      cells, 1, isolation(resume_timeout_s), &cache);
  EXPECT_TRUE(resumed[0].ok) << resumed[0].error;
  EXPECT_TRUE(resumed[0].from_cache);
  EXPECT_FALSE(resumed[1].ok);
  EXPECT_NE(resumed[1].error.find("timed out"), std::string::npos)
      << resumed[1].error;
  EXPECT_TRUE(resumed[2].ok) << resumed[2].error;
  EXPECT_FALSE(resumed[2].from_cache);
  EXPECT_EQ(core::serialize_summary(resumed[0].summary),
            core::serialize_summary(results[0].summary));
}

TEST_F(SupervisorTest, InstallAndRemoveStopHandlersRoundTrip) {
  sweep::install_stop_handlers();
  // Installing twice is idempotent; a raised SIGINT sets the flag instead of
  // killing the test binary.
  sweep::install_stop_handlers();
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(sweep::stop_requested());
  EXPECT_EQ(sweep::stop_signal(), SIGINT);
  sweep::remove_stop_handlers();
  sweep::clear_stop();
}

}  // namespace
}  // namespace netcache
