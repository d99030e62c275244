// Machine-level integration tests: counter consistency, determinism, and
// end-to-end behaviour of small driven workloads.
#include <gtest/gtest.h>

#include <functional>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/sim/frame_arena.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/tdma.hpp"

namespace netcache {
namespace {

using core::Cpu;
using core::Machine;

/// Runs per-tid bodies supplied by the test. Each test allocates the shared
/// region its bodies touch before the run, as a workload's setup would.
class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(Machine&, Cpu&, int)> body;
  Machine* machine = nullptr;
  const char* name() const override { return "machine-script"; }
  void setup(core::Machine& m) override { machine = &m; }
  sim::Task<void> run(Cpu& cpu, int tid) override {
    if (body) co_await body(*machine, cpu, tid);
  }
  bool verify() override { return true; }
};

TEST(Machine, ReadCountersAreConsistent) {
  MachineConfig cfg;
  cfg.nodes = 8;
  Machine m(cfg);
  const Addr base = m.address_space().alloc_shared(64 * 1024);
  Script s;
  s.body = [base](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await cpu.read(base + static_cast<Addr>((i * 7 + tid * 131) % 512) *
                                   64);
    }
  };
  auto summary = m.run(s);
  NodeStats t = summary.totals;
  // Every read lands in exactly one of the accounting buckets.
  EXPECT_EQ(t.reads, t.l1_hits + t.l2_hits + t.l2_misses + t.local_mem_reads);
  EXPECT_EQ(t.reads, 8u * 200u);
  // NetCache: every remote miss probed the shared cache.
  EXPECT_EQ(t.l2_misses, t.shared_cache_hits + t.shared_cache_misses);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run_once = [] {
    MachineConfig cfg;
    cfg.nodes = 8;
    Machine m(cfg);
    m.address_space().alloc_shared(256 * 64);
    Script s;
    s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        co_await cpu.read(static_cast<Addr>((i * 13 + tid * 7) % 256) * 64);
        if (i % 3 == 0) {
          co_await cpu.write(static_cast<Addr>(i % 64) * 64, 4);
        }
      }
      co_await cpu.node().fence();
    };
    return m.run(s).run_time;
  };
  Cycles a = run_once();
  Cycles b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Machine, RunTimeIsMaxOfNodeFinishTimes) {
  MachineConfig cfg;
  cfg.nodes = 4;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
    co_await cpu.compute((tid + 1) * 1000);
  };
  auto summary = m.run(s);
  EXPECT_GE(summary.run_time, 4000);
  EXPECT_EQ(m.stats().node(3).finish_time, summary.run_time);
  for (int n = 0; n < 4; ++n) {
    EXPECT_LE(m.stats().node(n).finish_time, summary.run_time);
  }
}

TEST(Machine, WriteBufferFullStallsProcessor) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.write_buffer_entries = 2;
  Machine m(cfg);
  m.address_space().alloc_shared(33 * 64);
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    // Burst of writes to distinct blocks overwhelms a 2-entry buffer.
    for (int i = 0; i < 32; ++i) {
      co_await cpu.write(static_cast<Addr>(i + 1) * 64, 4);
    }
    co_await cpu.node().fence();
    EXPECT_GT(mach.stats().node(0).wb_full_stall_cycles, 0);
  };
  m.run(s);
}

TEST(Machine, SingleNodeMachineWorks) {
  MachineConfig cfg;
  cfg.nodes = 1;
  for (SystemKind kind :
       {SystemKind::kNetCache, SystemKind::kLambdaNet,
        SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate}) {
    cfg.system = kind;
    Machine m(cfg);
    m.address_space().alloc_shared(100 * 64);
    Script s;
    s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        co_await cpu.read(static_cast<Addr>(i) * 64);
        co_await cpu.write(static_cast<Addr>(i) * 64, 4);
      }
      co_await cpu.node().fence();
    };
    auto summary = m.run(s);
    EXPECT_GT(summary.run_time, 0) << to_string(kind);
    // On one node all shared data is local: no remote misses.
    EXPECT_EQ(summary.totals.l2_misses, 0u) << to_string(kind);
  }
}

TEST(Machine, SummaryCarriesSystemAndAppNames) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.system = SystemKind::kDmonUpdate;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
    co_await cpu.compute(1);
  };
  auto summary = m.run(s);
  EXPECT_EQ(summary.system, "DMON-U");
  EXPECT_EQ(summary.app, "machine-script");
  EXPECT_EQ(summary.nodes, 2);
  EXPECT_TRUE(summary.verified);
  EXPECT_FALSE(core::format_summary(summary).empty());
}

TEST(Machine, ComputeAccumulatesBusyTime) {
  MachineConfig cfg;
  cfg.nodes = 2;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int) -> sim::Task<void> {
    co_await cpu.compute(500);
  };
  m.run(s);
  EXPECT_EQ(m.stats().node(0).compute_cycles, 500);
  EXPECT_EQ(m.stats().node(1).compute_cycles, 500);
}

TEST(Machine, LeafAccessesRunWithoutCoroutineFrames) {
  // After warm-up, each single-delay leaf await completes on one op event or
  // one direct resume of its caller: the frame arena serves no frame, fresh
  // or reused, while it is pending. The slow paths (an L1 miss, a stall on a
  // full write buffer) still run as coroutines and finish on the same cycles
  // as when every access was a coroutine of its own.
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.write_buffer_entries = 2;
  Machine m(cfg);
  sim::Resource port(m.engine());
  sim::TdmaChannel slots(m.engine(), cfg.nodes, 1);
  Cycles miss_cycles = -1;
  Cycles stall_done = -1;
  const Addr base = m.address_space().alloc_shared(9 * 4096);
  Script s;
  s.body = [&](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    sim::Engine& eng = mach.engine();
    const sim::FrameArena& arena = sim::FrameArena::local();
    auto frames = [&] { return arena.fresh_allocations() + arena.reuses(); };
    Addr remote = base;
    while (mach.address_space().home(remote) == 0) remote += 64;

    Cycles t0 = eng.now();
    co_await cpu.read(remote);  // L1 and L2 miss, remote home
    miss_cycles = eng.now() - t0;

    std::uint64_t before = frames();
    co_await cpu.read(remote);
    EXPECT_EQ(frames(), before) << "L1-hit read";
    before = frames();
    co_await cpu.write(remote, 4);
    EXPECT_EQ(frames(), before) << "write into a free buffer entry";
    co_await cpu.node().fence();
    before = frames();
    co_await cpu.compute(10);
    EXPECT_EQ(frames(), before) << "compute";
    before = frames();
    co_await port.use(5);
    EXPECT_EQ(frames(), before) << "uncontended Resource::use";
    before = frames();
    co_await slots.transmit(0);
    EXPECT_EQ(frames(), before) << "TDMA transmit";

    // A burst of stores to distinct blocks outruns the 2-entry buffer.
    t0 = eng.now();
    for (int i = 1; i <= 8; ++i) {
      co_await cpu.write(base + static_cast<Addr>(i) * 4096, 4);
    }
    stall_done = eng.now() - t0;
    co_await cpu.node().fence();
  };
  m.run(s);
  EXPECT_EQ(m.stats().node(0).l1_hits, 1u);
  EXPECT_GT(m.stats().node(0).wb_full_stall_cycles, 0);
  EXPECT_EQ(miss_cycles, 114);
  EXPECT_EQ(stall_done, 101);
}

}  // namespace
}  // namespace netcache
