#include "src/sim/resource.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/sim/engine.hpp"

namespace netcache::sim {
namespace {

TEST(Resource, SerializesUsers) {
  Engine eng;
  Resource res(eng);
  std::vector<Cycles> completions;
  auto user = [&]() -> Task<void> {
    co_await res.use(10);
    completions.push_back(eng.now());
  };
  for (int i = 0; i < 3; ++i) eng.spawn(user());
  eng.run();
  EXPECT_EQ(completions, (std::vector<Cycles>{10, 20, 30}));
}

TEST(Resource, FifoOrderAmongWaiters) {
  // use() and acquire() waiters share one FIFO.
  Engine eng;
  Resource res(eng);
  std::vector<std::pair<int, Cycles>> order;
  auto user = [&](int id, Cycles arrive) -> Task<void> {
    co_await eng.delay(arrive);
    co_await res.use(5);
    order.emplace_back(id, eng.now());
  };
  auto holder = [&](int id, Cycles arrive) -> Task<void> {
    co_await eng.delay(arrive);
    co_await res.acquire();
    order.emplace_back(id, eng.now());
    co_await eng.delay(5);
    res.release();
  };
  eng.spawn(user(1, 0));
  eng.spawn(holder(2, 1));
  eng.spawn(user(3, 2));
  eng.spawn(holder(4, 3));
  eng.spawn(user(5, 4));
  eng.run();
  // Users record when their hold ends, holders when it begins.
  EXPECT_EQ(order, (std::vector<std::pair<int, Cycles>>{
                       {1, 5}, {2, 5}, {3, 15}, {4, 15}, {5, 25}}));
  EXPECT_FALSE(res.busy());
}

TEST(Resource, FreeResourceAcquiresImmediately) {
  Engine eng;
  Resource res(eng);
  Cycles acquired_at = -1;
  auto user = [&]() -> Task<void> {
    co_await res.acquire();
    acquired_at = eng.now();
    res.release();
  };
  eng.spawn(user());
  eng.run();
  EXPECT_EQ(acquired_at, 0);
}

TEST(Resource, TracksWaitCycles) {
  Engine eng;
  Resource res(eng);
  std::vector<Cycles> done;
  auto user = [&](Cycles service) -> Task<void> {
    co_await res.use(service);
    done.push_back(eng.now());
  };
  eng.spawn(user(10));
  eng.spawn(user(10));
  eng.spawn(user(0));  // zero service: granted, then released at once
  eng.spawn(user(10));
  eng.run();
  // Waits: 0, 10, 20 and 20 — the zero-service user passes the resource on
  // the instant it is granted it.
  EXPECT_EQ(res.wait_cycles(), 50);
  EXPECT_EQ(done, (std::vector<Cycles>{10, 20, 20, 30}));
  EXPECT_FALSE(res.busy());
}

TEST(Resource, IdleBetweenBursts) {
  Engine eng;
  Resource res(eng);
  std::vector<Cycles> completions;
  auto user = [&](Cycles arrive) -> Task<void> {
    co_await eng.delay(arrive);
    co_await res.use(5);
    completions.push_back(eng.now());
  };
  eng.spawn(user(0));
  eng.spawn(user(100));
  eng.run();
  EXPECT_EQ(completions, (std::vector<Cycles>{5, 105}));
  EXPECT_FALSE(res.busy());
}

}  // namespace
}  // namespace netcache::sim
