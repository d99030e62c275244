// Discrete-event simulation engine: virtual clock + event queue + coroutine
// process management + failure containment (deadlock diagnosis, run
// watchdog, opt-in event tracing).
#pragma once

#include <coroutine>
#include <cstdint>

#include "src/common/failure.hpp"
#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"
#include "src/sim/diagnostics.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/task.hpp"

namespace netcache::sim {

class Engine : public FailureContext {
 public:
  Engine();
  ~Engine() override;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in pcycles.
  Cycles now() const { return now_; }

  /// Schedules `h.resume()` at now() + delay. `tag` (make_trace_tag)
  /// annotates the event in the opt-in trace ring; 0 leaves it untagged.
  void schedule_resume(Cycles delay, std::coroutine_handle<> h,
                       std::uint16_t tag = 0) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    queue_.push_resume(now_ + delay, h, tag);
  }

  /// Runs `op->run(op)` at now() + delay. The event does not own `op`; it
  /// must stay in place until it fires (see EventOp).
  void schedule_op(Cycles delay, EventOp* op, std::uint16_t tag = 0) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    queue_.push_op(now_ + delay, op, tag);
  }

  /// Detaches `t` as an independent process starting at now() + delay.
  /// The coroutine frame self-destroys on completion.
  void spawn(Task<void> t, Cycles delay = 0, std::uint16_t tag = 0);

  /// Runs until no events remain, under `limits` (all unlimited by default).
  /// Returns the final virtual time. Throws SimError with a full diagnostic
  /// report — blocked-task table, trace-ring tail — when the queue drains
  /// while registered waiters remain blocked (deadlock), or when a watchdog
  /// budget in `limits` is exhausted (runaway / livelock).
  Cycles run(const RunLimits& limits = {});

  /// Awaitable that suspends the current coroutine for `delay` cycles.
  /// Usage: `co_await engine.delay(n);` — `tag` annotates the wakeup event
  /// in the trace ring (make_trace_tag).
  auto delay(Cycles delay, std::uint16_t tag = 0) {
    struct Awaiter {
      Engine* eng;
      Cycles d;
      std::uint16_t tag;
      bool await_ready() const noexcept { return d <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        eng->schedule_resume(d, h, tag);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay, tag};
  }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Timing-wheel occupancy counters: where pushed events landed (O(1) wheel
  /// bucket vs overflow heap) — the data for sizing kWheelSize.
  const EventQueueStats& queue_stats() const { return queue_.stats(); }

  /// Suspended waiters currently registered with this engine. Sync and
  /// resource primitives add themselves here while blocked so a drained
  /// queue can be diagnosed (see diagnostics.hpp).
  BlockedRegistry& blocked() { return blocked_; }
  const BlockedRegistry& blocked() const { return blocked_; }

  /// Opt-in event trace: records (time, kind, tag, queue depth) for the last
  /// `capacity` executed events. Capacity 0 disables tracing again.
  void enable_trace(std::size_t capacity) { trace_.enable(capacity); }
  const TraceRing& trace() const { return trace_; }

  /// Engine time, event count, blocked-task table, and trace tail — appended
  /// to every NC_ASSERT/NC_FATAL report while this engine is alive.
  void describe_failure_context(std::string& out) const override;

 private:
  [[noreturn]] void fail_run(const char* problem);

  Cycles now_ = 0;
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  BlockedRegistry blocked_;
  TraceRing trace_;
};

}  // namespace netcache::sim
