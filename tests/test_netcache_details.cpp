// Deeper NetCache protocol behaviour: the update-window race FIFO, the
// in-flight request re-check, and concurrent-reader hit accounting.
#include <gtest/gtest.h>

#include <functional>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/net/netcache/netcache_net.hpp"

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
  const char* name() const override { return "nc-script"; }
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

MachineConfig nc_config() {
  MachineConfig cfg;
  cfg.nodes = 4;
  return cfg;
}

constexpr Addr kBlock = 64;  // homed at node 1 on a 4-node machine

TEST(NetCacheDetails, RaceWindowDelaysReadRightAfterUpdate) {
  Machine m(nc_config());
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2) co_await cpu.read(kBlock);  // block lands on the ring
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      // Read from node 3 immediately: we are inside the 2x-roundtrip
      // window, so the protocol must delay the ring probe.
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      co_await cpu.read(kBlock);
      EXPECT_GE(mach.stats().node(3).race_window_delays, 1u);
    }
  };
  m.run(s);
}

TEST(NetCacheDetails, WindowExpiresAfterTwoRoundtrips) {
  Machine m(nc_config());
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 2) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
    }
    co_await s.bar->wait(cpu);
    if (tid == 3) {
      // Wait out the window (2 x 40 cycles) before reading.
      co_await cpu.compute(200);
      co_await cpu.read(kBlock);
      EXPECT_EQ(mach.stats().node(3).race_window_delays, 0u);
      EXPECT_EQ(mach.stats().node(3).shared_cache_hits, 1u);
    }
  };
  m.run(s);
}

TEST(NetCacheDetails, StaggeredReadersOneMissOthersHit) {
  // Readers staggered past the first miss's completion: exactly one pays
  // the memory path; the rest find the block already circulating.
  Machine m(nc_config());
  Script s;
  s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
    co_await cpu.compute(tid * 150);
    if (tid != 1) co_await cpu.read(kBlock);  // node 1 is the home
  };
  auto summary = m.run(s);
  EXPECT_EQ(summary.totals.shared_cache_hits +
                summary.totals.shared_cache_misses,
            3u);
  EXPECT_EQ(summary.totals.shared_cache_hits, 2u);
  EXPECT_EQ(summary.totals.shared_cache_misses, 1u);
}

TEST(NetCacheDetails, LocalHomeMissDoesNotPopulateRing) {
  Machine m(nc_config());
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::NetCacheNet*>(&mach.interconnect());
    EXPECT_NE(net, nullptr);
    if (net == nullptr) co_return;
    if (tid == 1) co_await cpu.read(kBlock);  // node 1 is the home: local
    co_await s.bar->wait(cpu);
    if (tid == 0) {
      EXPECT_FALSE(net->ring()->contains(kBlock));
    }
  };
  m.run(s);
}

TEST(NetCacheDetails, RemoteMissPopulatesRingForLaterLocalEviction) {
  // After a remote node pulls the block through the star path, even the
  // home node's own later fetch finds it on the ring... but local-home
  // misses bypass the ring by design, so only remote readers benefit.
  Machine m(nc_config());
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::NetCacheNet*>(&mach.interconnect());
    if (tid == 0) co_await cpu.read(kBlock);
    co_await s.bar->wait(cpu);
    if (tid == 2) {
      EXPECT_TRUE(net->ring()->contains(kBlock));
      co_await cpu.read(kBlock);
      EXPECT_EQ(mach.stats().node(2).shared_cache_hits, 1u);
    }
  };
  m.run(s);
}

TEST(NetCacheDetails, UpdateToUncachedBlockDoesNotEnterRing) {
  Machine m(nc_config());
  Script s;
  s.body = [&s](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    auto* net = dynamic_cast<net::NetCacheNet*>(&mach.interconnect());
    if (tid == 0) {
      // Write without any prior read: the home updates memory only; the
      // ring is not populated by updates (paper Section 3.4: "If the block
      // is not present in a cache channel, the home node will not include
      // it").
      co_await cpu.write(kBlock, 4);
      co_await cpu.node().fence();
      EXPECT_FALSE(net->ring()->contains(kBlock));
    }
    co_await s.bar->wait(cpu);
  };
  m.run(s);
}

}  // namespace
}  // namespace netcache
