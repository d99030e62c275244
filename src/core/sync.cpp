#include "src/core/sync.hpp"

#include "src/core/machine.hpp"

namespace netcache::core {

sim::Task<void> Lock::acquire(Cpu& cpu) {
  NodeStats& st = cpu.node().stats();
  ++st.lock_acquires;
  Cycles t0 = cpu.now();
  // Release consistency: all prior writes must be globally performed first.
  co_await cpu.node().fence();
  co_await machine_->interconnect().sync_message(cpu.id());
  while (held_) {
    co_await waiters_.wait(cpu.engine(), {cpu.id(), "cpu"});
  }
  held_ = true;
  st.sync_cycles += cpu.now() - t0;
}

sim::Task<void> Lock::release(Cpu& cpu) {
  NodeStats& st = cpu.node().stats();
  Cycles t0 = cpu.now();
  co_await cpu.node().fence();
  co_await machine_->interconnect().sync_message(cpu.id());
  held_ = false;
  waiters_.notify_all(cpu.engine());
  st.sync_cycles += cpu.now() - t0;
}

sim::Task<void> Barrier::wait(Cpu& cpu) {
  NodeStats& st = cpu.node().stats();
  ++st.barrier_waits;
  Cycles t0 = cpu.now();
  co_await cpu.node().fence();
  co_await machine_->interconnect().sync_message(cpu.id());
  if (++arrived_ == parties_) {
    arrived_ = 0;
    // Release broadcast from the last arriver.
    co_await machine_->interconnect().sync_message(cpu.id());
    waiters_.notify_all(cpu.engine());
  } else {
    co_await waiters_.wait(cpu.engine(), {cpu.id(), "cpu"});
  }
  st.sync_cycles += cpu.now() - t0;
}

}  // namespace netcache::core
