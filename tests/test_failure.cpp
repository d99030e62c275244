// Failure-containment layer tests: deadlock diagnosis (blocked-task
// reports), the run watchdog (RunLimits), the opt-in event trace ring, and
// the NC_ASSERT context dump. See DESIGN.md "Failure containment".
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/common/config.hpp"
#include "src/common/nc_assert.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"
#include "src/core/sync.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/task.hpp"
#include "src/sim/wait_list.hpp"

namespace netcache {
namespace {

using core::Machine;
using sim::Engine;
using sim::RunLimits;
using sim::Task;

/// Runs `fn`, which must throw SimError, and returns the diagnostic message.
template <typename Fn>
std::string diagnose(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SimError";
  return {};
}

MachineConfig small_config(int nodes) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

/// The classic miscounted barrier: parties = workers + 1, so the release
/// broadcast never happens and every CPU parks forever.
struct MiscountedBarrier : apps::Workload {
  core::Barrier* barrier = nullptr;
  const char* name() const override { return "miscounted-barrier"; }
  void setup(Machine& machine) override {
    barrier = &machine.make_barrier(machine.nodes() + 1);
  }
  Task<void> run(core::Cpu& cpu, int) override { co_await barrier->wait(cpu); }
  bool verify() override { return true; }
};

/// Worker 0 takes the lock and exits without releasing; everyone else queues
/// behind the leaked hold forever.
struct LeakedLock : apps::Workload {
  core::Lock* lock = nullptr;
  const char* name() const override { return "leaked-lock"; }
  void setup(Machine& machine) override { lock = &machine.make_lock(); }
  Task<void> run(core::Cpu& cpu, int tid) override {
    co_await lock->acquire(cpu);
    if (tid == 0) co_return;  // leak the hold
    co_await lock->release(cpu);
  }
  bool verify() override { return true; }
};

TEST(DeadlockDiagnosis, MiscountedBarrierNamesEveryBlockedCpu) {
  Machine machine(small_config(4));
  MiscountedBarrier wl;
  std::string report = diagnose([&] { machine.run(wl); });
  EXPECT_NE(report.find("deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("waiting on Barrier"), std::string::npos) << report;
  // Every CPU must appear with its tag and blocked-since cycle.
  for (int id = 0; id < 4; ++id) {
    std::string who = "[cpu " + std::to_string(id) + "]";
    EXPECT_NE(report.find(who), std::string::npos)
        << "missing " << who << " in:\n" << report;
  }
  EXPECT_NE(report.find("since cycle"), std::string::npos) << report;
}

TEST(DeadlockDiagnosis, LeakedLockNamesTheQueuedCpus) {
  Machine machine(small_config(2));
  LeakedLock wl;
  std::string report = diagnose([&] { machine.run(wl); });
  EXPECT_NE(report.find("waiting on Lock"), std::string::npos) << report;
  EXPECT_NE(report.find("[cpu 1]"), std::string::npos) << report;
  // CPU 0 finished (it leaked the lock but ran to completion).
  EXPECT_EQ(report.find("[cpu 0] waiting on Lock"), std::string::npos)
      << report;
}

TEST(DeadlockDiagnosisDeath, DriverExitsNonzeroWithReport) {
  // The CLI-driver contract: a diagnosed deadlock surfaces as SimError,
  // printed to stderr, process exits nonzero (examples/netcache_sim.cpp).
  auto driver = [] {
    Machine machine(small_config(2));
    MiscountedBarrier wl;
    try {
      machine.run(wl);
    } catch (const SimError& e) {
      std::fprintf(stderr, "netcache_sim: %s\n", e.what());
      std::exit(1);
    }
    std::exit(0);
  };
  EXPECT_EXIT(driver(), testing::ExitedWithCode(1),
              "waiting on Barrier.*since cycle");
}

TEST(DeadlockDiagnosis, LeakedResourceReportsTheParkedAcquirer) {
  Engine eng;
  sim::Resource port(eng, "MemPort");
  auto holder = [&]() -> Task<void> {
    co_await port.acquire({0, "holder"});
    co_return;  // never releases
  };
  auto waiter = [&]() -> Task<void> {
    co_await port.acquire({5, "reader"});
  };
  eng.spawn(holder());
  eng.spawn(waiter());
  std::string report = diagnose([&] { eng.run(); });
  EXPECT_NE(report.find("waiting on MemPort"), std::string::npos) << report;
  EXPECT_NE(report.find("[reader 5]"), std::string::npos) << report;
}

TEST(DeadlockDiagnosis, CleanRunLeavesNoBlockedWaiters) {
  Machine machine(small_config(2));
  struct Healthy : apps::Workload {
    core::Barrier* barrier = nullptr;
    const char* name() const override { return "healthy"; }
    void setup(Machine& m) override { barrier = &m.make_barrier(m.nodes()); }
    Task<void> run(core::Cpu& cpu, int) override {
      co_await barrier->wait(cpu);
    }
    bool verify() override { return true; }
  } wl;
  // fail_on_blocked is on by default; a correct barrier must not trip it.
  core::RunSummary summary = machine.run(wl);
  EXPECT_TRUE(summary.verified);
  EXPECT_TRUE(machine.engine().blocked().empty());
}

/// An op that reschedules itself `period` cycles out every time it fires.
struct Ticker : sim::EventOp {
  Ticker(Engine* e, Cycles p) : EventOp(&tick), eng(e), period(p) {}
  static void tick(sim::EventOp* op) {
    auto* self = static_cast<Ticker*>(op);
    self->eng->schedule_op(self->period, self);
  }
  Engine* eng;
  Cycles period;
};

TEST(Watchdog, TripsOnZeroDelayLivelock) {
  // A NACK/retry spin: the op reschedules itself at +0 forever.
  Engine eng;
  Ticker spinner(&eng, 0);
  eng.schedule_op(0, &spinner);
  RunLimits limits;
  limits.max_stalled_events = 100;
  std::string report = diagnose([&] { eng.run(limits); });
  EXPECT_NE(report.find("stalled"), std::string::npos) << report;
  EXPECT_NE(report.find("engine state"), std::string::npos) << report;
}

TEST(Watchdog, SameCycleBurstsBelowTheLimitPass) {
  Engine eng;
  for (int i = 0; i < 50; ++i) eng.schedule_resume(7, std::noop_coroutine());
  RunLimits limits;
  limits.max_stalled_events = 100;
  EXPECT_EQ(eng.run(limits), 7);
}

TEST(Watchdog, TripsOnVirtualTimeBudget) {
  Engine eng;
  Ticker ticker(&eng, 10);
  eng.schedule_op(0, &ticker);
  RunLimits limits;
  limits.max_cycles = 500;
  std::string report = diagnose([&] { eng.run(limits); });
  EXPECT_NE(report.find("max_cycles"), std::string::npos) << report;
  EXPECT_EQ(eng.now(), 500);
}

TEST(Watchdog, TripsOnEventBudget) {
  Engine eng;
  Ticker ticker(&eng, 10);
  eng.schedule_op(0, &ticker);
  RunLimits limits;
  limits.max_events = 100;
  std::string report = diagnose([&] { eng.run(limits); });
  EXPECT_NE(report.find("max_events"), std::string::npos) << report;
}

TEST(Watchdog, ExactEventBudgetOnFinishedRunIsNotAnError) {
  Engine eng;
  int fired = 0;
  auto bump = [&]() -> Task<void> {
    ++fired;
    co_return;
  };
  for (int i = 0; i < 3; ++i) eng.spawn(bump(), i);
  RunLimits limits;
  limits.max_events = 3;  // the queue is empty exactly at the budget
  EXPECT_EQ(eng.run(limits), 2);
  EXPECT_EQ(fired, 3);
}

TEST(TraceRing, DisabledByDefault) {
  Engine eng;
  eng.schedule_resume(1, std::noop_coroutine());
  eng.run();
  EXPECT_FALSE(eng.trace().enabled());
  EXPECT_EQ(eng.trace().recorded(), 0u);
  EXPECT_TRUE(eng.trace().dump().empty());
}

TEST(TraceRing, KeepsTheLastKEvents) {
  Engine eng;
  eng.enable_trace(4);
  for (int i = 0; i < 10; ++i) eng.schedule_resume(i, std::noop_coroutine());
  eng.run();
  EXPECT_EQ(eng.trace().recorded(), 10u);
  EXPECT_EQ(eng.trace().capacity(), 4u);
  std::vector<Cycles> times;
  eng.trace().for_each_tail(
      [&](const sim::TraceRecord& r) { times.push_back(r.time); });
  EXPECT_EQ(times, (std::vector<Cycles>{6, 7, 8, 9}));
}

TEST(TraceRing, DumpRendersKindsAndDepths) {
  Engine eng;
  eng.enable_trace(8);
  auto coro = [&]() -> Task<void> { co_await eng.delay(3); };
  eng.spawn(coro());
  sim::EventOp nop([](sim::EventOp*) {});
  eng.schedule_op(5, &nop);
  eng.run();
  // spawn resume @0, delay resume @3, op @5 (traced as a callback).
  EXPECT_EQ(eng.trace().recorded(), 3u);
  std::string dump = eng.trace().dump();
  EXPECT_NE(dump.find("event trace tail (3 recorded, last 3 kept)"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("resume"), std::string::npos) << dump;
  EXPECT_NE(dump.find("callback"), std::string::npos) << dump;
  EXPECT_NE(dump.find("t=5"), std::string::npos) << dump;
}

TEST(TraceRing, FailureReportCarriesTheTraceTail) {
  Engine eng;
  eng.enable_trace(16);
  sim::WaitList wl("Stuck");
  auto waiter = [&]() -> Task<void> { co_await wl.wait(eng, {2, "cpu"}); };
  eng.spawn(waiter());
  std::string report = diagnose([&] { eng.run(); });
  EXPECT_NE(report.find("event trace tail"), std::string::npos) << report;
  EXPECT_NE(report.find("waiting on Stuck"), std::string::npos) << report;
}

TEST(TraceRing, ReenableClearsHistory) {
  Engine eng;
  eng.enable_trace(4);
  for (int i = 0; i < 6; ++i) eng.schedule_resume(i, std::noop_coroutine());
  eng.run();
  eng.enable_trace(4);
  EXPECT_EQ(eng.trace().recorded(), 0u);
  eng.enable_trace(0);
  EXPECT_FALSE(eng.trace().enabled());
}

TEST(AssertReportDeath, DumpsEngineContextBeforeAborting) {
  Engine eng;
  sim::WaitList wl("StuckList");
  auto waiter = [&]() -> Task<void> { co_await wl.wait(eng, {3, "cpu"}); };
  eng.spawn(waiter());
  RunLimits lenient;
  lenient.fail_on_blocked = false;
  eng.run(lenient);  // parks the waiter on purpose
  EXPECT_DEATH(NC_FATAL("corrupt state"),
               "NC_ASSERT failed.*corrupt state.*engine state.*"
               "waiting on StuckList");
}

TEST(AssertReportDeath, PlainAssertStillFires) {
  EXPECT_DEATH(NC_ASSERT(1 + 1 == 3, "arithmetic broke"),
               "1 \\+ 1 == 3.*arithmetic broke");
}

}  // namespace
}  // namespace netcache
