#include "src/core/sync.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"

namespace netcache {
namespace {

using core::Cpu;
using core::Machine;

constexpr std::size_t kScriptSharedBytes = 32 * 1024;

class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(Machine&, Cpu&, int)> body;
  Machine* machine = nullptr;
  const char* name() const override { return "sync-script"; }
  void setup(core::Machine& m) override {
    machine = &m;
    // The bodies address shared blocks directly from 0; allocate that
    // region so every shared address the run touches is allocated.
    m.address_space().alloc_shared(kScriptSharedBytes);
  }
  sim::Task<void> run(Cpu& cpu, int tid) override {
    if (body) co_await body(*machine, cpu, tid);
  }
  bool verify() override { return true; }
};

MachineConfig small_config() {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kNetCache;
  return cfg;
}

TEST(Lock, ProvidesMutualExclusionInVirtualTime) {
  Machine m(small_config());
  Script s;
  core::Lock* lock = nullptr;
  int inside = 0;
  int max_inside = 0;
  int entries = 0;
  s.body = [&](Machine& mach, Cpu& cpu, int) -> sim::Task<void> {
    if (!lock) lock = &mach.make_lock();
    for (int i = 0; i < 5; ++i) {
      co_await lock->acquire(cpu);
      ++inside;
      max_inside = std::max(max_inside, inside);
      ++entries;
      co_await cpu.compute(10);  // critical section spans virtual time
      --inside;
      co_await lock->release(cpu);
    }
  };
  m.run(s);
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(entries, 20);
}

TEST(Lock, CountsAcquisitions) {
  Machine m(small_config());
  Script s;
  core::Lock* lock = nullptr;
  s.body = [&](Machine& mach, Cpu& cpu, int) -> sim::Task<void> {
    if (!lock) lock = &mach.make_lock();
    co_await lock->acquire(cpu);
    co_await lock->release(cpu);
  };
  auto summary = m.run(s);
  EXPECT_EQ(summary.totals.lock_acquires, 4u);
}

TEST(Barrier, AllArriveBeforeAnyoneLeaves) {
  Machine m(small_config());
  Script s;
  core::Barrier* bar = nullptr;
  int arrived = 0;
  bool violated = false;
  s.body = [&](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (!bar) bar = &mach.make_barrier(mach.nodes());
    co_await cpu.compute(tid * 100);  // staggered arrival
    ++arrived;
    co_await bar->wait(cpu);
    if (arrived != 4) violated = true;
  };
  m.run(s);
  EXPECT_FALSE(violated);
}

TEST(Barrier, Reusable) {
  Machine m(small_config());
  Script s;
  core::Barrier* bar = nullptr;
  std::vector<int> phase_counts(3, 0);
  s.body = [&](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (!bar) bar = &mach.make_barrier(mach.nodes());
    for (int phase = 0; phase < 3; ++phase) {
      co_await cpu.compute((tid + 1) * (phase + 1) * 10);
      ++phase_counts[static_cast<std::size_t>(phase)];
      co_await bar->wait(cpu);
      EXPECT_EQ(phase_counts[static_cast<std::size_t>(phase)], 4);
    }
  };
  m.run(s);
}

TEST(Barrier, AccumulatesSyncCycles) {
  Machine m(small_config());
  Script s;
  core::Barrier* bar = nullptr;
  s.body = [&](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (!bar) bar = &mach.make_barrier(mach.nodes());
    co_await cpu.compute(tid == 0 ? 0 : 1000);  // node 0 waits a long time
    co_await bar->wait(cpu);
  };
  m.run(s);
  EXPECT_GT(m.stats().node(0).sync_cycles, 900);
  EXPECT_EQ(m.stats().total().barrier_waits, 4u);
}

TEST(Fence, DrainsBufferedWritesBeforeSync) {
  Machine m(small_config());
  Script s;
  s.body = [&](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    for (int i = 0; i < 8; ++i) {
      co_await cpu.write(static_cast<Addr>(i + 1) * 64, 4);
    }
    EXPECT_FALSE(mach.node(0).wb().empty());
    co_await cpu.node().fence();
    EXPECT_TRUE(mach.node(0).wb().empty());
    EXPECT_EQ(mach.stats().node(0).updates_sent, 8u);
  };
  m.run(s);
}

TEST(Lock, HandoffPreservesExclusionUnderContention) {
  // Many lock/unlock pairs from all nodes with zero-length critical
  // sections: the lock must still serialize in virtual time order.
  Machine m(small_config());
  Script s;
  core::Lock* lock = nullptr;
  int inside = 0;
  bool violated = false;
  s.body = [&](Machine& mach, Cpu& cpu, int) -> sim::Task<void> {
    if (!lock) lock = &mach.make_lock();
    for (int i = 0; i < 20; ++i) {
      co_await lock->acquire(cpu);
      if (++inside != 1) violated = true;
      --inside;
      co_await lock->release(cpu);
    }
  };
  m.run(s);
  EXPECT_FALSE(violated);
}

}  // namespace
}  // namespace netcache
