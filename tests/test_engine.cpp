#include "src/sim/engine.hpp"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "src/common/sim_error.hpp"

namespace netcache::sim {
namespace {

// Detached probe: records the engine time at which it runs.
Task<void> mark(Engine* eng, std::vector<Cycles>* seen) {
  seen->push_back(eng->now());
  co_return;
}

TEST(Engine, ClockAdvancesToEventTimes) {
  Engine eng;
  std::vector<Cycles> seen;
  eng.spawn(mark(&eng, &seen), 5);
  eng.spawn(mark(&eng, &seen), 17);
  Cycles end = eng.run();
  EXPECT_EQ(seen, (std::vector<Cycles>{5, 17}));
  EXPECT_EQ(end, 17);
}

TEST(Engine, NestedSchedulingIsRelative) {
  Engine eng;
  std::vector<Cycles> seen;
  auto outer = [&]() -> Task<void> {
    eng.spawn(mark(&eng, &seen), 7);
    co_return;
  };
  eng.spawn(outer(), 10);
  eng.run();
  EXPECT_EQ(seen, (std::vector<Cycles>{17}));
}

TEST(Engine, PushBelowTheSnappedCursorFiresFirst) {
  // The only pending event schedules +100 and then +5: the first push snaps
  // the empty queue's cursor to 100, so the second lands below it.
  Engine eng;
  std::vector<Cycles> seen;
  auto handler = [&]() -> Task<void> {
    eng.spawn(mark(&eng, &seen), 100);
    eng.spawn(mark(&eng, &seen), 5);
    co_return;
  };
  eng.spawn(handler());
  EXPECT_EQ(eng.run(), 100);
  EXPECT_EQ(seen, (std::vector<Cycles>{5, 100}));
}

TEST(Engine, DelayAwaitableSuspendsForExactly) {
  Engine eng;
  Cycles after = -1;
  auto proc = [&]() -> Task<void> {
    co_await eng.delay(42);
    after = eng.now();
  };
  eng.spawn(proc());
  eng.run();
  EXPECT_EQ(after, 42);
}

TEST(Engine, ZeroDelayDoesNotSuspend) {
  Engine eng;
  int steps = 0;
  auto proc = [&]() -> Task<void> {
    co_await eng.delay(0);
    ++steps;
    co_await eng.delay(-5);  // clamped: ready immediately
    ++steps;
  };
  eng.spawn(proc());
  eng.run();
  EXPECT_EQ(steps, 2);
}

TEST(Engine, SpawnWithStartDelay) {
  Engine eng;
  Cycles started = -1;
  auto proc = [&]() -> Task<void> {
    started = eng.now();
    co_return;
  };
  eng.spawn(proc(), 33);
  eng.run();
  EXPECT_EQ(started, 33);
}

TEST(Engine, CountsExecutedEvents) {
  Engine eng;
  for (int i = 0; i < 5; ++i) eng.schedule_resume(i, std::noop_coroutine());
  eng.run();
  EXPECT_EQ(eng.events_executed(), 5u);
}

TEST(Engine, ManyConcurrentProcesses) {
  Engine eng;
  int done = 0;
  auto proc = [&](Cycles d) -> Task<void> {
    co_await eng.delay(d);
    co_await eng.delay(d);
    ++done;
  };
  for (Cycles d = 1; d <= 100; ++d) eng.spawn(proc(d));
  Cycles end = eng.run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(end, 200);
}

TEST(Engine, WatchdogThrowsBeforeFiringThePoppedEvent) {
  // The event run() pops just before a watchdog throws does not fire.
  struct CountOp : EventOp {
    explicit CountOp(int* n) : EventOp(&count), fired(n) {}
    static void count(EventOp* op) { ++*static_cast<CountOp*>(op)->fired; }
    int* fired;
  };
  int fired = 0;
  CountOp ops[4] = {CountOp(&fired), CountOp(&fired), CountOp(&fired),
                    CountOp(&fired)};
  {
    Engine eng;
    for (int i = 0; i < 4; ++i) eng.schedule_op(10 * (i + 1), &ops[i]);
    RunLimits limits;
    limits.max_cycles = 20;  // @10 fires; @20 is popped, then run() throws
    EXPECT_THROW(eng.run(limits), SimError);
    EXPECT_EQ(eng.events_executed(), 1u);
    EXPECT_EQ(fired, 1);
  }
  fired = 0;
  {
    Engine eng;
    for (CountOp& op : ops) eng.schedule_op(5, &op);
    RunLimits limits;
    limits.max_stalled_events = 1;  // the third same-time pop throws
    EXPECT_THROW(eng.run(limits), SimError);
    EXPECT_EQ(eng.events_executed(), 2u);
    EXPECT_EQ(fired, 2);
  }
}

}  // namespace
}  // namespace netcache::sim
