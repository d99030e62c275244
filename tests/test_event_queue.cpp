#include "src/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/task.hpp"

namespace netcache::sim {
namespace {

constexpr Cycles kWheel = static_cast<Cycles>(EventQueue::kWheelSize);

// Detached probe coroutine: records (t, id) when its resume event fires.
Task<void> record(std::vector<std::pair<Cycles, int>>* out, Cycles t, int id) {
  out->emplace_back(t, id);
  co_return;
}

// Probe op: records (t, id) when its op event fires.
struct RecordOp : EventOp {
  RecordOp(std::vector<std::pair<Cycles, int>>* o, Cycles time, int i)
      : EventOp(&fired), out(o), t(time), id(i) {}
  static void fired(EventOp* op) {
    auto* self = static_cast<RecordOp*>(op);
    self->out->emplace_back(self->t, self->id);
  }
  std::vector<std::pair<Cycles, int>>* out;
  Cycles t;
  int id;
};

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
  q.pop().fire();  // a popped boxed event owns its callable until it fires
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop().fire();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  q.pop().fire();
  q.push(5, [&] { order.push_back(2); });
  q.push(1, [&] { order.push_back(3); });
  q.pop().fire();
  q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, ResumeAndCallbackEventsShareTimeline) {
  // Resume, callback and op events interleave by (time, insertion order),
  // whatever their kind; only plain resumes report is_resume().
  EventQueue q;
  std::vector<std::pair<Cycles, int>> order;
  RecordOp op3(&order, 3, 1), op1(&order, 1, 4), op3b(&order, 3, 5);
  q.push(3, [&] { order.emplace_back(3, 0); });
  q.push_op(3, &op3);
  q.push_resume(3, record(&order, 3, 2).release_detached());
  q.push(1, [&] { order.emplace_back(1, 3); });
  q.push_op(1, &op1);
  q.push_op(3, &op3b);
  q.push_resume(1, record(&order, 1, 6).release_detached());
  std::vector<bool> resumes;
  while (!q.empty()) {
    Event e = q.pop();
    resumes.push_back(e.is_resume());
    e.fire();
  }
  EXPECT_EQ(order, (std::vector<std::pair<Cycles, int>>{
                       {1, 3}, {1, 4}, {1, 6}, {3, 0}, {3, 1}, {3, 2}, {3, 5}}));
  EXPECT_EQ(resumes, (std::vector<bool>{false, false, true, false, false, true,
                                        false}));
}

// --- timing-wheel determinism ---

TEST(EventQueue, SameCycleFifoAcrossWheelAndOverflow) {
  // Events at one instant must fire in insertion order even when the first
  // insertions land in the far-future overflow heap and later ones land in a
  // wheel bucket (after the cursor advanced within range of T).
  EventQueue q;
  std::vector<int> order;
  const Cycles kT = kWheel + 500;  // beyond the horizon of the first anchor
  q.push(1, [&] { order.push_back(-2); });       // anchor: cursor near 1
  q.push(kT, [&] { order.push_back(0); });       // -> overflow
  q.push(kT, [&] { order.push_back(1); });       // -> overflow
  q.push(kWheel, [&] { order.push_back(-1); });  // advances cursor when popped
  q.pop().fire();  // @1
  q.pop().fire();  // @kWheel; horizon now covers kT
  q.push(kT, [&] { order.push_back(2); });  // -> wheel bucket
  q.push(kT, [&] { order.push_back(3); });  // -> wheel bucket
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(order, (std::vector<int>{-2, -1, 0, 1, 2, 3}));
}

TEST(EventQueue, FarFutureOverflowFiresInOrder) {
  // Far-future events parked in the overflow heap fire at the right times in
  // (time, insertion) order once the cursor reaches them.
  EventQueue q;
  std::vector<Cycles> fired;
  for (Cycles k = 8; k >= 1; --k) {
    Cycles t = k * kWheel + 17;
    q.push(t, [&fired, t] { fired.push_back(t); });
  }
  q.push(3, [&fired] { fired.push_back(3); });
  std::vector<Cycles> times;
  while (!q.empty()) {
    times.push_back(q.next_time());
    q.pop().fire();
  }
  EXPECT_EQ(fired, times);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 9u);
}

TEST(EventQueue, WheelWrapKeepsBucketTimesApart) {
  // Times T and T + kWheelSize map to the same bucket index; the earlier one
  // must fire first and the later one must not fire early. Push/pop
  // interleaved right at the wrap edge.
  EventQueue q;
  std::vector<Cycles> fired;
  auto record = [&](Cycles t) {
    q.push(t, [&fired, t] { fired.push_back(t); });
  };
  record(10);              // bucket 10
  record(10 + kWheel);     // same bucket index, one lap later -> overflow
  record(10 + 2 * kWheel); // two laps later
  EXPECT_EQ(q.next_time(), 10);
  q.pop().fire();          // cursor now 10
  record(11);
  q.pop().fire();          // 11
  EXPECT_EQ(q.next_time(), 10 + kWheel);
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<Cycles>{10, 11, 10 + kWheel, 10 + 2 * kWheel}));
}

TEST(EventQueue, SameCycleFifoSurvivesPushDuringDrain) {
  // Events scheduled for the instant currently being drained (delay-0
  // handoffs) run after the already-queued same-instant events.
  EventQueue q;
  std::vector<int> order;
  q.push(7, [&] {
    order.push_back(0);
    q.push(7, [&] { order.push_back(2); });
  });
  q.push(7, [&] { order.push_back(1); });
  while (!q.empty()) {
    EXPECT_EQ(q.next_time(), 7);
    q.pop().fire();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ManyEventsRandomTimesMatchReferenceOrder) {
  // Cross-check the wheel against a simple reference: sort by (time, seq).
  // Every 16th single push is followed by a push_resume_batch run and one
  // more single push at the same instant: batches link their nodes into the
  // bucket (or heap) one by one and must interleave with singles exactly as
  // individual pushes would.
  EventQueue q;
  std::vector<std::pair<Cycles, int>> ref;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<std::pair<Cycles, int>> fired;
  std::vector<std::coroutine_handle<>> batch;
  int seq = 0;
  auto push_single = [&](Cycles t) {
    ref.emplace_back(t, seq);
    q.push(t, [&fired, t, s = seq] { fired.emplace_back(t, s); });
    ++seq;
  };
  for (int i = 0; i < 5000; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Mix near-future, bucket-colliding, and far-future times.
    Cycles t = static_cast<Cycles>(rng % (3 * static_cast<std::uint64_t>(kWheel)));
    push_single(t);
    if (i % 16 == 0) {
      batch.clear();
      const int n = 1 + static_cast<int>((rng >> 32) % 8);
      for (int k = 0; k < n; ++k) {
        ref.emplace_back(t, seq);
        batch.push_back(record(&fired, t, seq++).release_detached());
      }
      q.push_resume_batch(t, batch.data(), batch.size());
      push_single(t);
    }
  }
  std::sort(ref.begin(), ref.end());
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, ref);
}

TEST(EventQueue, RegrowsOnceUnderFarFutureHeavyLoad) {
  // A workload whose delays routinely exceed the wheel horizon must trigger
  // the one-shot 2x regrow — and the regrow must not change fire order.
  EventQueue q;
  std::vector<std::pair<Cycles, int>> ref;
  std::vector<std::pair<Cycles, int>> fired;
  std::uint64_t rng = 0x853c49e6748fea9bull;
  const int n = 3 * static_cast<int>(EventQueue::kRegrowMinPushes) / 2;
  for (int i = 0; i < n; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // ~1/3 of events land past the horizon: far over the 10% regrow
    // threshold once enough pushes have accumulated.
    Cycles t = (i % 3 == 0)
                   ? kWheel + static_cast<Cycles>(rng % static_cast<std::uint64_t>(kWheel))
                   : static_cast<Cycles>(rng % static_cast<std::uint64_t>(kWheel));
    ref.emplace_back(t, i);
    q.push(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  EXPECT_EQ(q.stats().wheel_regrows, 1u);
  EXPECT_EQ(q.wheel_size(), 2 * EventQueue::kWheelSize);
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, ref);
}

TEST(EventQueue, NoRegrowForNearFutureWorkloads) {
  // Plenty of pushes but almost no overflow traffic: the wheel keeps its
  // initial size (the regrow guard never trips on healthy workloads).
  EventQueue q;
  for (std::uint64_t i = 0; i < 2 * EventQueue::kRegrowMinPushes; ++i) {
    q.push(static_cast<Cycles>(i % 100), [] {});
  }
  EXPECT_EQ(q.stats().wheel_regrows, 0u);
  EXPECT_EQ(q.wheel_size(), EventQueue::kWheelSize);
  while (!q.empty()) q.pop().fire();
}

TEST(EventQueue, InlineCallbackDestroyedWithoutFiring) {
  // Dropping a queue with pending callback events must destroy the inline
  // callables exactly once (checked via a ref-counting capture). Pending op
  // events are not owned: dropping them never touches the op.
  int alive = 0;
  struct Token {
    int* alive;
    explicit Token(int* a) : alive(a) { ++*alive; }
    Token(const Token& o) : alive(o.alive) { ++*alive; }
    Token(Token&& o) noexcept : alive(o.alive) { ++*alive; }
    ~Token() { --*alive; }
  };
  struct CanaryOp : EventOp {
    CanaryOp() : EventOp(&never) {}
    static void never(EventOp*) { ADD_FAILURE() << "unfired op ran"; }
  };
  CanaryOp near_op, far_op;
  const auto run_before = near_op.run;
  {
    EventQueue q;
    Token tok(&alive);
    q.push(1, [tok] { (void)tok; });
    q.push_op(1, &near_op);
    q.push(kWheel * 2, [tok] { (void)tok; });  // overflow copy
    q.push_op(kWheel * 2, &far_op);            // overflow op
    EXPECT_GE(alive, 3);
  }
  EXPECT_EQ(alive, 0);
  EXPECT_EQ(near_op.run, run_before);
  EXPECT_EQ(far_op.run, run_before);
}

TEST(EventQueue, NodePoolBoundedByPeakPending) {
  // Bucket FIFOs share one node pool: bursts into ever-new buckets reuse the
  // nodes the previous drain freed, so the pool never outgrows the peak
  // number of pending events, however many buckets have held a burst.
  EventQueue q;
  std::vector<std::coroutine_handle<>> hs(256, std::noop_coroutine());
  std::size_t peak = 0;
  Cycles t = 0;
  for (int round = 0; round < 64; ++round) {
    // Three 256-handle bursts per round, each in its own bucket; the base
    // time walks more than a full wheel lap over the rounds.
    for (Cycles k = 0; k < 3; ++k) {
      q.push_resume_batch(t + 1 + 37 * k + round % 5, hs.data(), hs.size());
      peak = std::max(peak, q.size());
      EXPECT_LE(q.node_capacity(), peak);
    }
    while (!q.empty()) {
      t = q.next_time();
      q.pop().fire();
    }
  }
  EXPECT_EQ(peak, 3 * hs.size());
  EXPECT_EQ(q.node_capacity(), peak);
}

}  // namespace
}  // namespace netcache::sim
