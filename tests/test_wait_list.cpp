#include "src/sim/wait_list.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace netcache::sim {
namespace {

// Detached notifier: wakes every waiter on `wl` when it runs.
Task<void> notify(Engine& eng, WaitList& wl) {
  wl.notify_all(eng);
  co_return;
}

TEST(WaitList, NotifyResumesAllWaiters) {
  Engine eng;
  WaitList wl;
  int resumed = 0;
  auto waiter = [&]() -> Task<void> {
    co_await wl.wait(eng);
    ++resumed;
  };
  for (int i = 0; i < 5; ++i) eng.spawn(waiter());
  eng.spawn(notify(eng, wl), 10);
  eng.run();
  EXPECT_EQ(resumed, 5);
}

TEST(WaitList, NotifyWithNoWaitersIsNoop) {
  Engine eng;
  WaitList wl;
  wl.notify_all(eng);  // must not crash or schedule anything
  EXPECT_EQ(eng.run(), 0);
}

TEST(WaitList, WaitersResumeAtNotifyTime) {
  Engine eng;
  WaitList wl;
  Cycles resumed_at = -1;
  auto waiter = [&]() -> Task<void> {
    co_await wl.wait(eng);
    resumed_at = eng.now();
  };
  eng.spawn(waiter());
  eng.spawn(notify(eng, wl), 42);
  eng.run();
  EXPECT_EQ(resumed_at, 42);
}

TEST(WaitList, ReRegistrationAfterResume) {
  Engine eng;
  WaitList wl;
  int wakeups = 0;
  auto waiter = [&]() -> Task<void> {
    co_await wl.wait(eng);
    ++wakeups;
    co_await wl.wait(eng);
    ++wakeups;
  };
  eng.spawn(waiter());
  eng.spawn(notify(eng, wl), 5);
  eng.spawn(notify(eng, wl), 10);
  eng.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(WaitList, NotificationsDoNotAccumulate) {
  // A notify before anyone waits is lost (condition-variable semantics).
  Engine eng;
  WaitList wl;
  bool resumed = false;
  wl.notify_all(eng);
  auto waiter = [&]() -> Task<void> {
    co_await wl.wait(eng);
    resumed = true;
  };
  eng.spawn(waiter());
  // This stepwise run parks the waiter on purpose; opt out of the deadlock
  // diagnosis for it.
  RunLimits lenient;
  lenient.fail_on_blocked = false;
  eng.run(lenient);
  EXPECT_FALSE(resumed);  // still parked; engine ran out of events
  EXPECT_FALSE(wl.empty());
  EXPECT_EQ(eng.blocked().size(), 1u);
  wl.notify_all(eng);
  eng.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(eng.blocked().empty());
}

TEST(WaitList, NotifyPreservesWaitOrder) {
  // notify_all schedules every waiter at the current instant; the resume
  // order must be exactly the wait() order.
  Engine eng;
  WaitList wl;
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await wl.wait(eng);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) eng.spawn(waiter(i));
  eng.spawn(notify(eng, wl), 3);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WaitList, NotifyInterleavesWithSameInstantSchedules) {
  // Events scheduled before the notify at the same instant fire before the
  // waiters; events scheduled after fire after them.
  Engine eng;
  WaitList wl;
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await wl.wait(eng);
    order.push_back(id);
  };
  auto mark = [&](int id) -> Task<void> {
    order.push_back(id);
    co_return;
  };
  auto notifier = [&]() -> Task<void> {
    eng.spawn(mark(-1));  // before the waiters
    wl.notify_all(eng);
    eng.spawn(mark(-2));  // after the waiters
    co_return;
  };
  for (int i = 0; i < 3; ++i) eng.spawn(waiter(i));
  eng.spawn(notifier(), 7);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, -2}));
}

TEST(WaitList, WaitersRegisterWithBlockedRegistry) {
  Engine eng;
  WaitList wl("TestList");
  auto waiter = [&]() -> Task<void> {
    co_await wl.wait(eng, {7, "unit"});
  };
  auto check_then_notify = [&]() -> Task<void> {
    EXPECT_EQ(eng.blocked().size(), 1u);
    bool seen = false;
    eng.blocked().for_each([&](const BlockedInfo& b) {
      seen = true;
      EXPECT_STREQ(b.what, "TestList");
      EXPECT_EQ(b.target, &wl);
      EXPECT_EQ(b.tag.node, 7);
      EXPECT_STREQ(b.tag.label, "unit");
      EXPECT_EQ(b.since, 0);
    });
    EXPECT_TRUE(seen);
    wl.notify_all(eng);
    co_return;
  };
  eng.spawn(waiter());
  eng.spawn(check_then_notify(), 5);
  eng.run();
  EXPECT_TRUE(eng.blocked().empty());
}

}  // namespace
}  // namespace netcache::sim
