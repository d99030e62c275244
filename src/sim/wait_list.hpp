// A list of suspended coroutines waiting for a condition, resumed explicitly.
#pragma once

#include <coroutine>
#include <vector>

#include "src/sim/diagnostics.hpp"
#include "src/sim/engine.hpp"

namespace netcache::sim {

/// Condition-variable-like primitive: `co_await wl.wait(engine, tag)`
/// suspends; a later `wl.notify_all(engine)` resumes every waiter at the
/// current virtual time. The waiter must re-check its condition after
/// resuming.
///
/// Every suspended waiter is registered with the engine's BlockedRegistry
/// (kind, this, tag, suspend cycle) for the duration of its park, so a
/// drained event queue produces a deadlock report naming exactly who is
/// stuck on which list. Give the list a `kind` ("Lock", "Barrier",
/// "WriteBuffer.space", ...) and tag each wait with the owning node/CPU.
class WaitList {
 public:
  explicit WaitList(const char* kind = "WaitList") : kind_(kind) {}

  auto wait(Engine& engine, WaiterTag tag = {}) {
    struct Awaiter {
      WaitList* wl;
      Engine* eng;
      WaiterTag tag;
      BlockedRegistry::Ticket ticket = 0;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        wl->waiters_.push_back(h);
        ticket = eng->blocked().add({wl->kind_, wl, tag, eng->now()});
      }
      void await_resume() const noexcept { eng->blocked().remove(ticket); }
    };
    return Awaiter{this, &engine, tag};
  }

  /// Resumes every waiter at the current time, in wait() order. The resume
  /// events carry a sync trace tag so failure-report tails show notify
  /// storms as such.
  void notify_all(Engine& engine) {
    const std::uint16_t tag = make_trace_tag(kNoNode, TraceTagKind::kSync);
    for (std::coroutine_handle<> h : waiters_) engine.schedule_resume(0, h, tag);
    waiters_.clear();
  }

  bool empty() const { return waiters_.empty(); }

 private:
  const char* kind_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace netcache::sim
