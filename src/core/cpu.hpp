// The processor-facing access API. Application kernels issue
// `co_await cpu.read(addr)` / `cpu.write(addr)` / `cpu.compute(n)`; the Cpu
// walks the memory hierarchy and charges simulated time.
//
// Each access is an awaiter that lives in the suspended caller's frame, not a
// coroutine: its first event (the L1 tag check, the write-buffer insert, the
// end of a compute burst) runs on an EventOp embedded in the awaiter or
// resumes the caller directly. Only the multi-step slow paths — a read that
// misses L1, a write that finds the buffer full — start a Task, which the
// awaiter owns and which continues into the caller when it completes.
#pragma once

#include <coroutine>

#include "src/common/config.hpp"
#include "src/common/types.hpp"
#include "src/core/address_space.hpp"
#include "src/core/node.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace netcache::verify {
class CoherenceOracle;
}

namespace netcache::core {

class Machine;

class Cpu {
 public:
  Cpu(Machine& machine, Node& node);

  NodeId id() const { return node_->id(); }
  Node& node() { return *node_; }
  Machine& machine() { return *machine_; }
  sim::Engine& engine() { return *engine_; }
  Cycles now() const { return engine_->now(); }

  /// Awaiter returned by read(). Awaiting it counts the load and schedules
  /// the L1 tag check, whose op either completes an L1 hit and resumes the
  /// caller or starts read_miss().
  class ReadAwaiter : sim::EventOp {
   public:
    ReadAwaiter(Cpu& cpu, Addr addr) noexcept
        : EventOp(&tag_checked), cpu_(&cpu), addr_(addr) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() const noexcept {}

   private:
    static void tag_checked(sim::EventOp* op);

    Cpu* cpu_;
    Addr addr_;
    Cycles t0_ = 0;
    std::coroutine_handle<> caller_;
    sim::Task<void> miss_;
  };

  /// Awaiter returned by write(). Awaiting it counts the store and schedules
  /// the 1-pcycle buffer insert, whose op completes the store and resumes
  /// the caller, or starts write_stall() when the buffer is full.
  class WriteAwaiter : sim::EventOp {
   public:
    WriteAwaiter(Cpu& cpu, Addr addr, int bytes) noexcept
        : EventOp(&insert), cpu_(&cpu), addr_(addr), bytes_(bytes) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() const noexcept {}

   private:
    static void insert(sim::EventOp* op);

    Cpu* cpu_;
    Addr addr_;
    int bytes_;
    std::coroutine_handle<> caller_;
    sim::Task<void> stall_;
  };

  /// Awaiter returned by compute(): books the cycles and schedules the
  /// caller's own resume.
  struct ComputeAwaiter {
    Cpu* cpu;
    Cycles cycles;
    bool await_ready() const noexcept { return cycles <= 0; }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() const noexcept {}
  };

  /// A data load of up to one word-aligned element. Completes when the
  /// processor unstalls (L1 hit: 1 pcycle; deeper levels per Tables 1-2).
  ReadAwaiter read(Addr addr) { return ReadAwaiter(*this, addr); }

  /// A data store: 1 pcycle into the coalescing write buffer, stalling only
  /// when the buffer is full (paper Section 4.1).
  WriteAwaiter write(Addr addr, int bytes = kWordBytes) {
    return WriteAwaiter(*this, addr, bytes);
  }

  /// Models `cycles` of non-memory work (ALU/FPU instructions).
  ComputeAwaiter compute(Cycles cycles) { return {this, cycles}; }

 private:
  /// The rest of a load that missed L1: L2 tag check onward. `t0` is the
  /// cycle the load was issued.
  sim::Task<void> read_miss(Addr addr, Cycles t0);
  /// The rest of a store that found the write buffer full: waits for space,
  /// then buffers it.
  sim::Task<void> write_stall(Addr addr, int bytes, bool priv);
  /// A store has entered the write buffer: oracle hook, wake the drainer.
  void store_buffered(Addr addr, bool priv);
  /// Background next-block prefetch (sequential_prefetch extension).
  sim::Task<void> prefetch(Addr block_base);

  Machine* machine_;
  Node* node_;
  sim::Engine* engine_;
  const MachineConfig* config_;
  const LatencyParams* lat_;
  AddressSpace* as_;
  verify::CoherenceOracle* oracle_;  // null unless the run is verified
};

}  // namespace netcache::core
