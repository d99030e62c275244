// FIFO-served exclusive resources (memory ports, optical channels, ...).
#pragma once

#include <coroutine>
#include <deque>

#include "src/common/types.hpp"
#include "src/sim/diagnostics.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/event_queue.hpp"

namespace netcache::sim {

/// An exclusive resource with FIFO queueing. A holder acquires, works for
/// some simulated time, then releases; waiters resume in arrival order.
///
/// Queued acquirers register with the engine's BlockedRegistry while
/// suspended, so a deadlocked run (a leaked release) reports who is parked
/// on which resource and since when. `kind` names the resource in that
/// report; `tag` identifies the acquirer.
///
/// Waiters queue as EventOps embedded in their awaiters (which live in the
/// suspended callers' frames), so acquire() and use() share one FIFO and a
/// hand-over is one op event.
class Resource {
 public:
  explicit Resource(Engine& engine, const char* kind = "Resource")
      : engine_(&engine), kind_(kind) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  bool busy() const { return busy_; }
  std::size_t queue_length() const { return waiters_.size(); }

  /// Awaitable acquisition: `co_await res.acquire();` — returns holding the
  /// resource. Pair with release().
  auto acquire(WaiterTag tag = {}) {
    struct Awaiter : EventOp {
      Awaiter(Resource* r, WaiterTag t) noexcept
          : EventOp(&granted), res(r), tag(t) {}
      static void granted(EventOp* op) {
        static_cast<Awaiter*>(op)->caller.resume();
      }
      bool await_ready() noexcept {
        if (!res->busy_) {
          res->busy_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        caller = h;
        res->waiters_.push_back(this);
        ticket = res->engine_->blocked().add(
            {res->kind_, res, tag, res->engine_->now()});
      }
      void await_resume() const noexcept {
        // Uncontended acquires complete in await_ready and never registered.
        if (caller) res->engine_->blocked().remove(ticket);
      }
      Resource* res;
      WaiterTag tag;
      std::coroutine_handle<> caller;
      BlockedRegistry::Ticket ticket = 0;
    };
    return Awaiter(this, tag);
  }

  /// Releases the resource; the next FIFO waiter (if any) is granted it at
  /// the current time via the event queue.
  void release();

  /// Awaiter returned by use(): acquire, occupy for the service time,
  /// release — with the same grant, service and release events as an
  /// acquire/delay/release coroutine, but no frame of its own.
  class UseAwaiter : EventOp {
   public:
    UseAwaiter(Resource& res, Cycles service, WaiterTag tag) noexcept
        : EventOp(&fire), res_(&res), service_(service), tag_(tag) {}
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller);
    void await_resume() const noexcept {}

   private:
    /// The grant (queued case) or the end of the service time.
    static void fire(EventOp* op);
    /// Holding the resource: books the wait and starts the service time.
    /// Returns false for a zero service time: the resource is released at
    /// once and the caller continues without suspending.
    bool serve();

    Resource* res_;
    Cycles service_;
    WaiterTag tag_;
    Cycles t0_ = 0;
    std::coroutine_handle<> caller_;
    BlockedRegistry::Ticket ticket_ = 0;
    bool serving_ = false;
  };

  /// Acquire, occupy for `service` cycles, release: `co_await res.use(n);`.
  UseAwaiter use(Cycles service, WaiterTag tag = {}) {
    return UseAwaiter(*this, service, tag);
  }

  /// Total cycles spent waiting in this resource's queue (contention metric).
  Cycles wait_cycles() const { return wait_cycles_; }

 private:
  Engine* engine_;
  const char* kind_;
  bool busy_ = false;
  std::deque<EventOp*> waiters_;
  Cycles wait_cycles_ = 0;
};

}  // namespace netcache::sim
