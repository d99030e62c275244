// Discrete-event simulation engine: virtual clock + event queue + coroutine
// process management + failure containment (deadlock diagnosis, run
// watchdog, opt-in event tracing).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>

#include "src/common/failure.hpp"
#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"
#include "src/sim/diagnostics.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/partition.hpp"
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

  /// Schedules `action` (any callable) to run at now() + delay. The callable
  /// is boxed once on the heap and the 32-byte event record holds the owning
  /// pointer, so this is the slow path (only tests use it); prefer
  /// schedule_resume when the action is just resuming a coroutine (the
  /// record then holds the handle itself, no allocation), and schedule_op
  /// when the action lives in an awaiter (the record holds a non-owning
  /// EventOp pointer). Under --intra-jobs ops are boxed into this callback
  /// path, since partitioned runs carry callables, not ops. `tag`
  /// (make_trace_tag) annotates the event in the opt-in trace ring; 0 leaves
  /// it untagged. `fp` declares the commit footprint (event_queue.hpp):
  /// kLocal promises the handler's synchronous prefix touches only the
  /// tagged node's partition-owned state, allowing the parallel-commit PDES
  /// path to fire it on the owning worker. A kLocal event must carry a valid
  /// node tag — untagged routing inherits the *currently firing* partition,
  /// which is only guaranteed to match the handler's own state when pushed
  /// from that handler.
  template <typename F>
  void schedule(Cycles delay, F&& action, std::uint16_t tag = 0,
                CommitFootprint fp = CommitFootprint::kShared) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    if (parts_) [[unlikely]] {
      parts_->push(now_ + delay, std::forward<F>(action), tag, fp);
      return;
    }
    queue_.push(now_ + delay, std::forward<F>(action), tag);
  }

  /// Fast path: schedules `h.resume()` at now() + delay with no closure.
  void schedule_resume(Cycles delay, std::coroutine_handle<> h,
                       std::uint16_t tag = 0,
                       CommitFootprint fp = CommitFootprint::kShared) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    if (parts_) [[unlikely]] {
      parts_->push_resume(now_ + delay, h, tag, fp);
      return;
    }
    queue_.push_resume(now_ + delay, h, tag);
  }

  /// Fast path: runs `op->run(op)` at now() + delay with no allocation. The
  /// record does not own `op`; it must stay in place until it fires (see
  /// EventOp). Partitioned runs box it into a callback (see schedule()).
  void schedule_op(Cycles delay, EventOp* op, std::uint16_t tag = 0,
                   CommitFootprint fp = CommitFootprint::kShared) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    if (parts_) [[unlikely]] {
      parts_->push(now_ + delay, [op] { op->run(op); }, tag, fp);
      return;
    }
    queue_.push_op(now_ + delay, op, tag);
  }

  /// Bulk fast path: schedules `n` resumes at now() + delay in one bucket
  /// insertion (see EventQueue::push_resume_batch). Fire order is the array
  /// order, identical to n schedule_resume calls. All n share `tag`.
  void schedule_resume_batch(Cycles delay, const std::coroutine_handle<>* hs,
                             std::size_t n, std::uint16_t tag = 0,
                             CommitFootprint fp = CommitFootprint::kShared) {
    NC_ASSERT(delay >= 0, "cannot schedule into the past");
    if (parts_) [[unlikely]] {
      parts_->push_resume_batch(now_ + delay, hs, n, tag, fp);
      return;
    }
    queue_.push_resume_batch(now_ + delay, hs, n, tag);
  }

  /// Detaches `t` as an independent process starting at now() + delay.
  /// The coroutine frame self-destroys on completion.
  void spawn(Task<void> t, Cycles delay = 0, std::uint16_t tag = 0,
             CommitFootprint fp = CommitFootprint::kShared);

  /// Runs until no events remain, under `limits` (all unlimited by default).
  /// Returns the final virtual time. Throws SimError with a full diagnostic
  /// report — blocked-task table, trace-ring tail — when the queue drains
  /// while registered waiters remain blocked (deadlock), or when a watchdog
  /// budget in `limits` is exhausted (runaway / livelock).
  Cycles run(const RunLimits& limits = {});

  /// Awaitable that suspends the current coroutine for `delay` cycles.
  /// Usage: `co_await engine.delay(n);` — `tag` annotates the wakeup event
  /// in the trace ring (make_trace_tag); `fp` declares the wakeup's commit
  /// footprint (see schedule()).
  auto delay(Cycles delay, std::uint16_t tag = 0,
             CommitFootprint fp = CommitFootprint::kShared) {
    struct Awaiter {
      Engine* eng;
      Cycles d;
      std::uint16_t tag;
      CommitFootprint fp;
      bool await_ready() const noexcept { return d <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        eng->schedule_resume(d, h, tag, fp);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay, tag, fp};
  }

  /// Escape hatch out of a parallel-commit worker: `co_await engine.escape()`
  /// placed just before a handler's first touch of shared (cross-partition)
  /// machine state. On a worker it suspends the continuation so the
  /// coordinator resumes it serialized at the event's exact global-seq
  /// position; in serial mode, on the coordinator, and in non-parallel
  /// partitioned runs it completes synchronously — a true no-op, adding no
  /// event and perturbing nothing.
  auto escape() {
    struct Awaiter {
      bool await_ready() const noexcept {
        return !PartitionSet::on_parallel_worker();
      }
      void await_suspend(std::coroutine_handle<> h) const noexcept {
        PartitionSet::defer_escape(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{};
  }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Timing-wheel occupancy counters: where pushed events landed (O(1) wheel
  /// bucket vs overflow heap) — the data for sizing kWheelSize. Partitioned
  /// runs report the serial-identical shadow model's counters, so these are
  /// independent of --intra-jobs.
  const EventQueueStats& queue_stats() const {
    return parts_ ? parts_->stats() : queue_.stats();
  }

  /// Switches this engine to conservative-PDES execution (see partition.hpp).
  /// Must be called before any event is scheduled; `plan` must carry a
  /// validated lookahead. Irreversible for the engine's lifetime.
  void enable_partitions(const PartitionPlan& plan) {
    NC_ASSERT(queue_.empty() && now_ == 0 && events_executed_ == 0,
              "partitions must be enabled before the first event");
    NC_ASSERT(parts_ == nullptr, "partitions already enabled");
    parts_ = std::make_unique<PartitionSet>(plan);
    // Parallel batches register/deregister blocked waiters from worker
    // threads; sharding the registry by the waiter's node keeps each shard
    // single-threaded per phase (see BlockedRegistry::shard_by_node).
    blocked_.shard_by_node(plan.threads, plan.nodes);
    if (trace_.enabled()) parts_->enable_trace(trace_.capacity());
  }

  bool partitioned() const { return parts_ != nullptr; }

  /// The partitioned core, or null in serial mode (observability only).
  const PartitionSet* partitions() const { return parts_.get(); }

  /// Mutable partitioned core for the ownership-accounting hooks
  /// (note_lease_handoff / note_bank_access / note_ring_touch); null in
  /// serial mode.
  PartitionSet* partitions_mut() { return parts_.get(); }

  /// Suspended waiters currently registered with this engine. Sync and
  /// resource primitives add themselves here while blocked so a drained
  /// queue can be diagnosed (see diagnostics.hpp).
  BlockedRegistry& blocked() { return blocked_; }
  const BlockedRegistry& blocked() const { return blocked_; }

  /// Opt-in event trace: records (time, kind, tag, queue depth) for the last
  /// `capacity` executed events. Capacity 0 disables tracing again. In a
  /// partitioned run each partition keeps its own ring of this capacity and
  /// failure reports merge the tails by seq (partition-local writes — see
  /// the thread-confinement contract in DESIGN.md section 10).
  void enable_trace(std::size_t capacity) {
    trace_.enable(capacity);
    if (parts_) parts_->enable_trace(capacity);
  }
  const TraceRing& trace() const { return trace_; }

  /// Engine time, event count, blocked-task table, and trace tail — appended
  /// to every NC_ASSERT/NC_FATAL report while this engine is alive.
  void describe_failure_context(std::string& out) const override;

 private:
  friend class PartitionSet;  // runs the engine loop body in commit phases

  [[noreturn]] void fail_run(const char* problem);

  Cycles now_ = 0;
  EventQueue queue_;
  std::unique_ptr<PartitionSet> parts_;  // null = serial execution
  std::uint64_t events_executed_ = 0;
  BlockedRegistry blocked_;
  TraceRing trace_;
};

}  // namespace netcache::sim
