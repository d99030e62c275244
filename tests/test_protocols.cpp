// Protocol behaviour tests: snooping, invalidation, directory ownership,
// writebacks, ring insertion/race handling — checked through small driven
// workloads against the public Machine API.
#include <gtest/gtest.h>

#include <functional>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/net/dmon/ispeed_net.hpp"
#include "src/net/netcache/netcache_net.hpp"

namespace netcache {
namespace {

using core::Cpu;
using core::Machine;

constexpr std::size_t kScriptSharedBytes = 32 * 1024;

/// Runs per-tid bodies supplied by the test.
class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(Machine&, Cpu&, int)> body;
  Machine* machine = nullptr;
  core::Barrier* bar = nullptr;

  const char* name() const override { return "script"; }
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

MachineConfig config_for(SystemKind kind, int nodes = 4) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.system = kind;
  if (kind == SystemKind::kNetCache) cfg.ring.channels = 128;
  return cfg;
}

// Block 1 is homed at node 1 in a 4-node machine.
constexpr Addr kBlock = 64;

TEST(UpdateProtocols, RemoteUpdateKeepsL2ValidAndInvalidatesL1) {
  for (SystemKind kind : {SystemKind::kNetCache, SystemKind::kLambdaNet,
                          SystemKind::kDmonUpdate}) {
    Machine m(config_for(kind));
    Script s;
    s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
      if (tid == 2) co_await cpu.read(kBlock);  // cache it at node 2
      co_await s.bar->wait(cpu);
      if (tid == 0) {
        co_await cpu.write(kBlock, 4);  // update from node 0
        co_await cpu.node().fence();
      }
      co_await s.bar->wait(cpu);
      if (tid == 2) {
        EXPECT_TRUE(mach.node(2).l2().contains(kBlock))
            << to_string(mach.config().system);
        EXPECT_FALSE(mach.node(2).l1().contains(kBlock))
            << to_string(mach.config().system);
      }
    };
    m.run(s);
  }
}

TEST(ISpeed, WriteInvalidatesOtherCopies) {
  Machine m(config_for(SystemKind::kDmonInvalidate));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2 || tid == 3) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      EXPECT_FALSE(mach.node(2).l2().contains(kBlock));
      EXPECT_FALSE(mach.node(3).l2().contains(kBlock));
      EXPECT_EQ(mach.node(0).l2().state(kBlock),
                cache::LineState::kExclusive);
      EXPECT_GT(mach.stats().node(2).invalidations_received +
                    mach.stats().node(3).invalidations_received,
                0u);
    }
  };
  m.run(s);
}

TEST(ISpeed, FirstReaderBecomesOwnerAndForwardsClean) {
  Machine m(config_for(SystemKind::kDmonInvalidate));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::ISpeedNet*>(&mach.interconnect());
    EXPECT_NE(net, nullptr);
    if (net == nullptr) co_return;
    if (tid == 2) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 2) {
      EXPECT_EQ(net->owner_of(kBlock), 2);
      EXPECT_EQ(mach.node(2).l2().state(kBlock), cache::LineState::kShared);
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) co_await cpu.read(kBlock);  // forwarded from node 2
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      EXPECT_EQ(net->owner_of(kBlock), 2);  // ownership stays
      EXPECT_EQ(mach.node(3).l2().state(kBlock), cache::LineState::kClean);
    }
  };
  m.run(s);
}

TEST(ISpeed, ExclusiveEvictionWritesBackAndClearsDirectory) {
  Machine m(config_for(SystemKind::kDmonInvalidate));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::ISpeedNet*>(&mach.interconnect());
    if (tid == 0) {
      co_await cpu.read(kBlock);
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      EXPECT_EQ(net->owner_of(kBlock), 0);
      // Read a conflicting block (same L2 set: 16 KB away) to evict it.
      co_await cpu.read(kBlock + 16 * 1024);
      EXPECT_EQ(net->owner_of(kBlock), kNoNode);
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      EXPECT_EQ(mach.stats().node(0).writebacks, 1u);
    }
  };
  m.run(s);
}

TEST(ISpeed, SecondWriteToExclusiveBlockIsLocal) {
  Machine m(config_for(SystemKind::kDmonInvalidate));
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    co_await cpu.read(kBlock);
    co_await cpu.write(kBlock, 4);
    co_await cpu.node().fence();
    std::uint64_t before = mach.stats().node(0).ownership_requests;
    co_await cpu.write(kBlock + 4, 4);
    co_await cpu.node().fence();
    EXPECT_EQ(mach.stats().node(0).ownership_requests, before);
  };
  m.run(s);
}

TEST(NetCache, MissInsertsIntoRingAndSecondReaderHits) {
  Machine m(config_for(SystemKind::kNetCache));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::NetCacheNet*>(&mach.interconnect());
    EXPECT_NE(net, nullptr);
    if (net == nullptr) co_return;
    if (tid == 2) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      EXPECT_TRUE(net->ring()->contains(kBlock));
      co_await cpu.read(kBlock);
      EXPECT_EQ(mach.stats().node(3).shared_cache_hits, 1u);
      EXPECT_EQ(mach.stats().node(3).shared_cache_misses, 0u);
    }
  };
  m.run(s);
}

TEST(NetCache, NoRingVariantNeverHits) {
  Machine m(config_for(SystemKind::kNetCacheNoRing));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 3) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      EXPECT_EQ(mach.stats().total().shared_cache_hits, 0u);
    }
  };
  m.run(s);
}

TEST(NetCache, UpdateWindowDelaysRacingRead) {
  Machine m(config_for(SystemKind::kNetCache));
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2) co_await cpu.read(kBlock);  // block now on the ring
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      co_await cpu.write(kBlock, 4);  // update refreshes the ring copy
      co_await cpu.node().fence();
      // Immediately read a block in the update window from another node's
      // point of view: node 3 reads right after the update lands.
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      co_await cpu.read(kBlock);
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      // The read raced the window or cleanly hit, but it never saw a stale
      // copy: the race counter plus hits account for it.
      EXPECT_EQ(mach.stats().node(3).shared_cache_hits +
                    mach.stats().node(3).shared_cache_misses,
                1u);
    }
  };
  m.run(s);
}

TEST(AllSystems, LocalHomeMissesUseNoNetwork) {
  // Block 0 is homed at node 0: node 0's miss must not be counted as a
  // remote L2 miss and must not touch the shared cache.
  for (SystemKind kind :
       {SystemKind::kNetCache, SystemKind::kLambdaNet,
        SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate}) {
    Machine m(config_for(kind));
    Script s;
    s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
      if (tid != 0) co_return;
      co_await cpu.read(0);
      EXPECT_EQ(mach.stats().node(0).l2_misses, 0u);
      EXPECT_EQ(mach.stats().node(0).local_mem_reads, 1u);
    };
    m.run(s);
  }
}

TEST(AllSystems, PrivateDataStaysLocal) {
  for (SystemKind kind :
       {SystemKind::kNetCache, SystemKind::kLambdaNet,
        SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate}) {
    Machine m(config_for(kind));
    Script s;
    s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
      if (tid != 1) co_return;
      Addr p = mach.address_space().alloc_private(1, 256);
      co_await cpu.read(p);
      co_await cpu.write(p, 4);
      co_await cpu.node().fence();
      EXPECT_EQ(mach.stats().node(1).l2_misses, 0u);
      EXPECT_EQ(mach.stats().node(1).updates_sent, 0u);
    };
    m.run(s);
  }
}

}  // namespace
}  // namespace netcache
