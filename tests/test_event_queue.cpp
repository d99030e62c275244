#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/sim/task.hpp"

namespace netcache::sim {
namespace {

constexpr Cycles kWheel = static_cast<Cycles>(EventQueue::kWheelSize);

using Fired = std::vector<std::pair<Cycles, int>>;

// Detached probe coroutine: records (t, id) when its resume event fires.
Task<void> record(Fired* out, Cycles t, int id) {
  out->emplace_back(t, id);
  co_return;
}

// Schedules a probe that records (t, id) when it fires.
void push_record(EventQueue& q, Fired* out, Cycles t, int id) {
  q.push_resume(t, record(out, t, id).release_detached());
}

// Probe op: records (t, id) when its op event fires.
struct RecordOp : EventOp {
  RecordOp(Fired* o, Cycles time, int i)
      : EventOp(&fired), out(o), t(time), id(i) {}
  static void fired(EventOp* op) {
    auto* self = static_cast<RecordOp*>(op);
    self->out->emplace_back(self->t, self->id);
  }
  Fired* out;
  Cycles t;
  int id;
};

TEST(EventQueue, OrdersByTime) {
  // The first push snaps the empty queue's cursor to 30; the second lands
  // below it and re-buckets the wheel.
  EventQueue q;
  Fired order;
  push_record(q, &order, 30, 3);
  push_record(q, &order, 10, 1);
  push_record(q, &order, 20, 2);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (Fired{{10, 1}, {20, 2}, {30, 3}}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  Fired order;
  for (int i = 0; i < 10; ++i) push_record(q, &order, 5, i);
  while (!q.empty()) q.pop().fire();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)].second, i);
  }
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push_resume(42, std::noop_coroutine());
  q.push_resume(7, std::noop_coroutine());
  EXPECT_EQ(q.next_time(), 7);
  q.pop();
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push_resume(1, std::noop_coroutine());
  q.push_resume(2, std::noop_coroutine());
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, InterleavedPushPop) {
  // After the pop at 10 the queue is empty: the push at 5 snaps the cursor
  // back, and the push at 1 lands below it.
  EventQueue q;
  Fired order;
  push_record(q, &order, 10, 1);
  q.pop().fire();
  push_record(q, &order, 5, 2);
  push_record(q, &order, 1, 3);
  q.pop().fire();
  q.pop().fire();
  EXPECT_EQ(order, (Fired{{10, 1}, {1, 3}, {5, 2}}));
}

TEST(EventQueue, ResumeAndOpEventsShareTimeline) {
  // Resume and op events interleave by (time, insertion order), whatever
  // their kind; only resumes report is_resume().
  EventQueue q;
  Fired order;
  RecordOp op3(&order, 3, 1), op1(&order, 1, 4), op3b(&order, 3, 5);
  push_record(q, &order, 3, 0);
  q.push_op(3, &op3);
  push_record(q, &order, 3, 2);
  push_record(q, &order, 1, 3);
  q.push_op(1, &op1);
  q.push_op(3, &op3b);
  push_record(q, &order, 1, 6);
  std::vector<bool> resumes;
  while (!q.empty()) {
    const Event e = q.pop();
    resumes.push_back(e.is_resume());
    e.fire();
  }
  EXPECT_EQ(order,
            (Fired{{1, 3}, {1, 4}, {1, 6}, {3, 0}, {3, 1}, {3, 2}, {3, 5}}));
  EXPECT_EQ(resumes, (std::vector<bool>{true, false, true, true, false, true,
                                        false}));
}

// --- timing-wheel determinism ---

TEST(EventQueue, SameCycleFifoAcrossWheelAndOverflow) {
  // Events at one instant must fire in insertion order even when the first
  // insertions land in the far-future overflow heap and later ones land in a
  // wheel bucket (after the cursor advanced within range of T).
  EventQueue q;
  Fired order;
  const Cycles kT = kWheel + 500;  // beyond the horizon of the first anchor
  push_record(q, &order, 1, -2);       // anchor: cursor near 1
  push_record(q, &order, kT, 0);       // -> overflow
  push_record(q, &order, kT, 1);       // -> overflow
  push_record(q, &order, kWheel, -1);  // advances cursor when popped
  q.pop().fire();  // @1
  q.pop().fire();  // @kWheel; horizon now covers kT
  push_record(q, &order, kT, 2);  // -> wheel bucket
  push_record(q, &order, kT, 3);  // -> wheel bucket
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (Fired{{1, -2}, {kWheel, -1}, {kT, 0}, {kT, 1}, {kT, 2},
                          {kT, 3}}));
}

TEST(EventQueue, FarFutureOverflowFiresInOrder) {
  // Far-future events parked in the overflow heap fire at the right times in
  // (time, insertion) order once the cursor reaches them.
  EventQueue q;
  Fired fired;
  for (Cycles k = 8; k >= 1; --k) {
    push_record(q, &fired, k * kWheel + 17, static_cast<int>(k));
  }
  push_record(q, &fired, 3, 0);
  std::vector<Cycles> times;
  while (!q.empty()) {
    times.push_back(q.next_time());
    q.pop().fire();
  }
  ASSERT_EQ(fired.size(), 9u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, times[i]);
  }
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].first, fired[i].first);
  }
}

TEST(EventQueue, WheelWrapKeepsBucketTimesApart) {
  // Times T and T + kWheelSize map to the same bucket index; the earlier one
  // must fire first and the later one must not fire early. Push/pop
  // interleaved right at the wrap edge.
  EventQueue q;
  Fired fired;
  push_record(q, &fired, 10, 0);               // bucket 10
  push_record(q, &fired, 10 + kWheel, 1);      // same bucket, one lap later
  push_record(q, &fired, 10 + 2 * kWheel, 2);  // two laps later
  EXPECT_EQ(q.next_time(), 10);
  q.pop().fire();  // cursor now 10
  push_record(q, &fired, 11, 3);
  q.pop().fire();  // 11
  EXPECT_EQ(q.next_time(), 10 + kWheel);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (Fired{{10, 0}, {11, 3}, {10 + kWheel, 1},
                          {10 + 2 * kWheel, 2}}));
}

// Records (t, id), then schedules a probe for `next_id` at the same instant.
Task<void> record_then_push(EventQueue* q, Fired* out, Cycles t, int id,
                            int next_id) {
  out->emplace_back(t, id);
  push_record(*q, out, t, next_id);
  co_return;
}

TEST(EventQueue, SameCycleFifoSurvivesPushDuringDrain) {
  // Events scheduled for the instant currently being drained (delay-0
  // handoffs) run after the already-queued same-instant events.
  EventQueue q;
  Fired order;
  q.push_resume(7, record_then_push(&q, &order, 7, 0, 2).release_detached());
  push_record(q, &order, 7, 1);
  while (!q.empty()) {
    EXPECT_EQ(q.next_time(), 7);
    q.pop().fire();
  }
  EXPECT_EQ(order, (Fired{{7, 0}, {7, 1}, {7, 2}}));
}

TEST(EventQueue, ManyEventsRandomTimesMatchReferenceOrder) {
  // Cross-check the wheel against a simple reference: sort by (time, seq).
  // Every 16th resume is followed by a run of op events and one more resume
  // at the same instant: both kinds share the buckets (and the heap) and
  // must interleave in push order.
  EventQueue q;
  Fired ref;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  Fired fired;
  std::deque<RecordOp> ops;  // stays in place until every op has fired
  int seq = 0;
  auto push_single = [&](Cycles t) {
    ref.emplace_back(t, seq);
    push_record(q, &fired, t, seq++);
  };
  for (int i = 0; i < 5000; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Mix near-future, bucket-colliding, and far-future times.
    Cycles t = static_cast<Cycles>(rng % (3 * static_cast<std::uint64_t>(kWheel)));
    push_single(t);
    if (i % 16 == 0) {
      const int n = 1 + static_cast<int>((rng >> 32) % 8);
      for (int k = 0; k < n; ++k) {
        ref.emplace_back(t, seq);
        q.push_op(t, &ops.emplace_back(&fired, t, seq++));
      }
      push_single(t);
    }
  }
  std::sort(ref.begin(), ref.end());
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, ref);
}

TEST(EventQueue, DroppedQueueNeverTouchesPendingOps) {
  // Events own nothing: destroying a queue with pending op events, in the
  // wheel and in the overflow heap, never runs or touches the ops.
  struct CanaryOp : EventOp {
    CanaryOp() : EventOp(&never) {}
    static void never(EventOp*) { ADD_FAILURE() << "unfired op ran"; }
  };
  CanaryOp near_op, far_op;
  const auto run_before = near_op.run;
  {
    EventQueue q;
    q.push_op(1, &near_op);
    q.push_op(kWheel * 2, &far_op);  // overflow op
    EXPECT_EQ(q.stats().wheel_pushes, 1u);
    EXPECT_EQ(q.stats().overflow_pushes, 1u);
  }
  EXPECT_EQ(near_op.run, run_before);
  EXPECT_EQ(far_op.run, run_before);
}

TEST(EventQueue, NodePoolBoundedByPeakPending) {
  // Bucket FIFOs share one node pool: bursts into ever-new buckets reuse the
  // nodes the previous drain freed, so the pool never outgrows the peak
  // number of pending events, however many buckets have held a burst.
  EventQueue q;
  constexpr std::size_t kBurst = 256;
  std::size_t peak = 0;
  Cycles t = 0;
  for (int round = 0; round < 64; ++round) {
    // Three 256-event bursts per round, each in its own bucket; the base
    // time walks more than a full wheel lap over the rounds.
    for (Cycles k = 0; k < 3; ++k) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        q.push_resume(t + 1 + 37 * k + round % 5, std::noop_coroutine());
      }
      peak = std::max(peak, q.size());
      EXPECT_LE(q.node_capacity(), peak);
    }
    while (!q.empty()) {
      t = q.next_time();
      q.pop().fire();
    }
  }
  EXPECT_EQ(peak, 3 * kBurst);
  EXPECT_EQ(q.node_capacity(), peak);
}

}  // namespace
}  // namespace netcache::sim
