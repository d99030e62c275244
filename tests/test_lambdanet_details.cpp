// LambdaNet-specific behaviour: the paper's stated weakness that a node's
// reads and writes share its single transmit channel (Section 5.1: "its
// read and write transactions are not decoupled").
#include <gtest/gtest.h>

#include <functional>

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
  const char* name() const override { return "ln-script"; }
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

TEST(LambdaNetDetails, ReplyTrafficQueuesOnTheHomeChannel) {
  // Many nodes read distinct blocks that share one home: the replies all
  // stream on that home's single channel and serialize.
  MachineConfig cfg;
  cfg.nodes = 16;
  cfg.system = SystemKind::kLambdaNet;
  Machine m(cfg);
  Script s;
  s.body = [](Machine& mach, Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid == 1) co_return;  // node 1 is the home
    // Block numbers 1 mod 16, distinct per reader.
    Addr block = static_cast<Addr>(16 * (tid + 1) + 1) * 64;
    Cycles t0 = cpu.now();
    co_await cpu.read(block);
    // Reply serialization: with 15 simultaneous misses to one home, the
    // average wait far exceeds the 111-cycle contention-free latency.
    (void)t0;
    (void)mach;
  };
  auto summary = m.run(s);
  EXPECT_GT(summary.avg_l2_miss_latency, 111.0 + 50.0);
}

TEST(LambdaNetDetails, SpreadHomesAvoidTheQueue) {
  MachineConfig cfg;
  cfg.nodes = 16;
  cfg.system = SystemKind::kLambdaNet;
  Machine m(cfg);
  Script s;
  s.body = [](Machine&, Cpu& cpu, int tid) -> sim::Task<void> {
    // Each node reads a block homed at the *next* node: one request per
    // home, no reply-channel sharing... memory reads stay uncontended too.
    Addr block = static_cast<Addr>(16 + (tid + 1) % 16) * 64;
    if (static_cast<NodeId>(block / 64 % 16) == cpu.id()) co_return;
    co_await cpu.read(block);
  };
  auto summary = m.run(s);
  // avg_l2_miss_latency excludes the 5 cycles of L1/L2 tag checks that the
  // full 111-cycle read includes: the contention-free miss portion is 106.
  EXPECT_NEAR(summary.avg_l2_miss_latency, 106.0, 2.0);
}

TEST(LambdaNetDetails, OwnUpdatesDelayOwnReads) {
  // A burst of buffered writes occupies the node's channel; an immediately
  // following read's request has to wait behind the update in flight.
  auto read_latency_after_writes = [](int writes) {
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.system = SystemKind::kLambdaNet;
    Machine m(cfg);
    Script s;
    double latency = 0;
    s.body = [&latency, writes](Machine&, Cpu& cpu,
                                int tid) -> sim::Task<void> {
      if (tid != 0) co_return;
      for (int i = 0; i < writes; ++i) {
        co_await cpu.write(static_cast<Addr>(16 + i * 4) * 64, 64);
      }
      // Let the drainer claim the channel before the read's request needs
      // it (write-to-NI takes 14 cycles before the channel is seized).
      co_await cpu.compute(10);
      Cycles t0 = cpu.now();
      co_await cpu.read(static_cast<Addr>(1) * 64);
      latency = static_cast<double>(cpu.now() - t0);
    };
    m.run(s);
    return latency;
  };
  double quiet = read_latency_after_writes(0);
  double busy = read_latency_after_writes(6);
  EXPECT_DOUBLE_EQ(quiet, 111.0);
  EXPECT_GT(busy, quiet);
}

}  // namespace
}  // namespace netcache
