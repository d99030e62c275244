// Deeper DMON behaviour: update-ack flow control under queue pressure and
// I-SPEED ownership migration / writeback interactions.
#include <gtest/gtest.h>

#include <functional>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/net/dmon/ispeed_net.hpp"

namespace netcache {
namespace {

using core::Cpu;
using core::Machine;

constexpr std::size_t kScriptSharedBytes = 32 * 1024;

class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(Machine&, Cpu&, int)> body;
  Machine* machine = nullptr;
  core::Barrier* bar = nullptr;
  const char* name() const override { return "dmon-script"; }
  void setup(core::Machine& m) override {
    machine = &m;
    bar = &m.make_barrier(m.nodes());
    // The bodies address shared blocks directly from 0; allocate that
    // region so every shared address the run touches is allocated.
    m.address_space().alloc_shared(kScriptSharedBytes);
  }
  sim::Task<void> run(Cpu& cpu, int tid) override {
    if (body) co_await body(*machine, cpu, tid);
  }
  bool verify() override { return true; }
};

TEST(DmonDetails, UpdateStormTriggersAckFlowControl) {
  // 15 writers all hammer blocks homed at node 15: its memory update queue
  // must grow past the hysteresis point and withhold acknowledgements.
  MachineConfig cfg;
  cfg.nodes = 16;
  cfg.system = SystemKind::kDmonUpdate;
  cfg.mem_queue_hysteresis = 2;
  Machine m(cfg);
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 15) co_return;
    // Blocks homed at node 15: block numbers == 15 (mod 16).
    for (int i = 0; i < 8; ++i) {
      Addr block = static_cast<Addr>(16 * i + 15) * 64;
      co_await cpu.write(block + static_cast<Addr>(tid) * 4, 4);
      co_await cpu.node().fence();
    }
    (void)mach;
  };
  m.run(s);
  EXPECT_GT(m.node(15).mem().updates_queued(), 100u);
  EXPECT_GT(m.node(15).mem().acks_delayed(), 0u);
}

TEST(DmonDetails, OwnershipMigratesBetweenWriters) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kDmonInvalidate;
  Machine m(cfg);
  Script s;
  constexpr Addr kBlock = 64;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::ISpeedNet*>(&mach.interconnect());
    EXPECT_NE(net, nullptr);
    if (net == nullptr) co_return;
    if (tid == 0) {
      co_await cpu.read(kBlock);
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      EXPECT_EQ(net->owner_of(kBlock), 0);
    }
    co_await s.bar->wait(cpu);
    if (tid == 2) {
      co_await cpu.read(kBlock);  // forwarded from node 0 (dirty)
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      EXPECT_EQ(net->owner_of(kBlock), 2);
      EXPECT_EQ(mach.node(2).l2().state(kBlock),
                cache::LineState::kExclusive);
      // Node 0's copy was invalidated by node 2's ownership request.
      EXPECT_FALSE(mach.node(0).l2().contains(kBlock));
    }
  };
  m.run(s);
}

TEST(DmonDetails, ForwardedReadIsServedByOwnerNotMemory) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kDmonInvalidate;
  Machine m(cfg);
  Script s;
  constexpr Addr kBlock = 64;  // home: node 1
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 0) {
      co_await cpu.read(kBlock);
      co_await cpu.write(kBlock, 4);  // dirty at node 0
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    std::uint64_t reads_before = mach.node(1).mem().reads_served();
    if (tid == 3) {
      co_await cpu.read(kBlock);
      // The home memory served no new block read: the owner forwarded.
      EXPECT_EQ(mach.node(1).mem().reads_served(), reads_before);
      EXPECT_EQ(mach.node(3).l2().state(kBlock), cache::LineState::kClean);
    }
  };
  m.run(s);
}

TEST(DmonDetails, WritebackRefreshesMemoryOwnership) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kDmonInvalidate;
  Machine m(cfg);
  Script s;
  constexpr Addr kBlock = 64;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::ISpeedNet*>(&mach.interconnect());
    if (tid == 0) {
      co_await cpu.read(kBlock);
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      co_await cpu.read(kBlock + 16 * 1024);  // evict -> writeback
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      // After the writeback, memory owns the block again: node 3's read is
      // served by memory and makes node 3 the new (shared) owner.
      std::uint64_t wb = mach.stats().node(0).writebacks;
      EXPECT_EQ(wb, 1u);
      co_await cpu.read(kBlock);
      EXPECT_EQ(net->owner_of(kBlock), 3);
      EXPECT_EQ(mach.node(3).l2().state(kBlock), cache::LineState::kShared);
    }
  };
  m.run(s);
}

TEST(DmonDetails, InvalidationForcesCoherenceMissOnNextRead) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = SystemKind::kDmonInvalidate;
  Machine m(cfg);
  Script s;
  constexpr Addr kBlock = 64;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    if (tid == 2) {
      std::uint64_t misses_before = mach.stats().node(2).l2_misses;
      co_await cpu.read(kBlock);  // coherence miss: copy was invalidated
      EXPECT_EQ(mach.stats().node(2).l2_misses, misses_before + 1);
    }
  };
  m.run(s);
}

}  // namespace
}  // namespace netcache
