#include "src/sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/sim_error.hpp"

namespace netcache::sim {
namespace {

TEST(Engine, ClockAdvancesToEventTimes) {
  Engine eng;
  std::vector<Cycles> seen;
  eng.schedule(5, [&] { seen.push_back(eng.now()); });
  eng.schedule(17, [&] { seen.push_back(eng.now()); });
  Cycles end = eng.run();
  EXPECT_EQ(seen, (std::vector<Cycles>{5, 17}));
  EXPECT_EQ(end, 17);
}

TEST(Engine, NestedSchedulingIsRelative) {
  Engine eng;
  Cycles inner_time = -1;
  eng.schedule(10, [&] { eng.schedule(7, [&] { inner_time = eng.now(); }); });
  eng.run();
  EXPECT_EQ(inner_time, 17);
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
  for (int i = 0; i < 5; ++i) eng.schedule(i, [] {});
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

TEST(Engine, WatchdogThrowsFreeEveryBoxedCallable) {
  // A boxed callable belongs to its event: the event run() popped just
  // before a watchdog threw, and every event still pending when the engine
  // is destroyed, must each free its callable exactly once.
  int alive = 0;
  struct Token {
    int* alive;
    explicit Token(int* a) : alive(a) { ++*alive; }
    Token(const Token& o) : alive(o.alive) { ++*alive; }
    ~Token() { --*alive; }
  };
  {
    Engine eng;
    const Token tok(&alive);
    for (Cycles t = 10; t <= 40; t += 10) {
      eng.schedule(t, [tok] { (void)tok; });
    }
    RunLimits limits;
    limits.max_cycles = 20;  // @10 fires; @20 is popped, then run() throws
    EXPECT_THROW(eng.run(limits), SimError);
    EXPECT_EQ(eng.events_executed(), 1u);
  }
  EXPECT_EQ(alive, 0);
  {
    Engine eng;
    const Token tok(&alive);
    for (int i = 0; i < 4; ++i) eng.schedule(5, [tok] { (void)tok; });
    RunLimits limits;
    limits.max_stalled_events = 1;  // the third same-time pop throws
    EXPECT_THROW(eng.run(limits), SimError);
    EXPECT_EQ(eng.events_executed(), 2u);
  }
  EXPECT_EQ(alive, 0);
}

}  // namespace
}  // namespace netcache::sim
