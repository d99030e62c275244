// Time-ordered event queue for the discrete-event engine.
//
// Allocation-free in steady state:
//  - Events are plain 32-byte records, not std::function, and own nothing.
//    The dominant event kind — "resume this coroutine" — stores the raw
//    coroutine address. The other — "run this op" — stores a non-owning
//    EventOp pointer: the leaf awaiters (CPU accesses, resource holds) embed
//    the op in the suspended caller's frame, so firing it costs no
//    allocation and no coroutine frame.
//  - The queue is a hierarchical timing wheel: events within kWheelSize
//    cycles of the cursor go into a fixed ring of FIFO buckets (O(1)
//    push/pop); far-future events go to a small overflow min-heap and are
//    merged back by (time, seq) when the cursor reaches them.
//  - Bucket FIFOs are intrusive singly-linked lists threaded through one
//    node pool with a free list, so queue memory is bounded by the peak
//    number of pending events, not by how many ever shared a bucket.
//  - The hot paths are inline: a push inside the horizon onto a non-empty
//    queue, and a pop from the cursor's own bucket. The empty-queue snap,
//    overflow, rebuild and the wheel scan stay out of line.
//
// Determinism contract (same as the old priority-queue implementation):
// events fire in (time, insertion-order) order, regardless of which internal
// structure held them.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"

namespace netcache::sim {

/// A non-owning event action: an op event stores only this pointer, and
/// firing it calls `run(this)`. Lifetime rule: the op stays in place from
/// schedule to fire — it is neither moved nor destroyed while its event is
/// pending, which is why ops are non-copyable and non-movable. The usual
/// owner is an awaiter living in a suspended coroutine frame (the frame
/// cannot move, and it stays alive until the op resumes it). A pending op
/// whose event is destroyed unfired is never touched.
struct EventOp {
  explicit EventOp(void (*fn)(EventOp*)) noexcept : run(fn) {}
  EventOp(const EventOp&) = delete;
  EventOp& operator=(const EventOp&) = delete;

  void (*run)(EventOp*);
};

/// One scheduled event: a coroutine to resume (common case, a raw handle —
/// no allocation, no indirection) or a non-owning EventOp to run. Plain
/// data: 32 bytes (time, seq, tag, kind and one pointer; the queue's
/// intrusive link rides in the padding), trivially copyable, owning nothing,
/// so the queue moves records in and out of its node pool as plain copies
/// and an event dropped unfired needs no clean-up.
class Event {
 public:
  static Event make_resume(Cycles time, std::uint64_t seq,
                           std::coroutine_handle<> h, std::uint16_t tag = 0) {
    Event e;
    e.time = time;
    e.seq = seq;
    e.tag = tag;
    e.ptr_ = h.address();
    return e;
  }

  static Event make_op(Cycles time, std::uint64_t seq, EventOp* op,
                       std::uint16_t tag = 0) {
    Event e;
    e.time = time;
    e.seq = seq;
    e.tag = tag;
    e.ptr_ = op;
    e.kind_ = Kind::kOp;
    return e;
  }

  /// Runs the event: resumes the coroutine or calls the op.
  void fire() const {
    // Plain resumes dominate every workload and are the whole of a pure
    // delay chain, so they take the first test.
    if (kind_ == Kind::kResume) [[likely]] {
      if (ptr_) std::coroutine_handle<>::from_address(ptr_).resume();
      return;
    }
    auto* op = static_cast<EventOp*>(ptr_);
    op->run(op);
  }

  bool is_resume() const { return kind_ == Kind::kResume && ptr_ != nullptr; }

  Cycles time = 0;
  std::uint64_t seq = 0;
  /// Optional protocol tag (see make_trace_tag in diagnostics.hpp): node id
  /// in the low 12 bits, transaction kind in the high 4. Copied into the
  /// TraceRing record when the event fires; 0 means untagged.
  std::uint16_t tag = 0;

 private:
  friend class EventQueue;  // threads its bucket lists through next_

  /// What ptr_ holds.
  enum class Kind : std::uint8_t { kResume, kOp };

  Kind kind_ = Kind::kResume;
  std::uint32_t next_ = 0;  // EventQueue node-pool link (bucket or free list)
  void* ptr_ = nullptr;     // coroutine address or EventOp
};

static_assert(sizeof(Event) <= 32, "Event must stay a 32-byte record");
static_assert(std::is_trivially_copyable_v<Event>,
              "the node pool copies events as plain bytes");

/// Where pushed events landed: the observability needed to size kWheelSize
/// against real workloads. Overflow traffic is rare in practice: gauss
/// records none at 16 nodes, and the 256-node cells at most about 2% of
/// pushes (256-slot TDMA frames).
struct EventQueueStats {
  /// Events that landed in an O(1) wheel bucket on insertion.
  std::uint64_t wheel_pushes = 0;
  /// Events whose delay exceeded the wheel horizon (overflow min-heap,
  /// O(log n) push/pop).
  std::uint64_t overflow_pushes = 0;
};

/// Hierarchical timing wheel with far-future overflow heap. Ties in time
/// break by insertion order, which keeps the simulation deterministic.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Near-future horizon: events within [cursor, cursor + kWheelSize) live
  /// in O(1) ring buckets; anything further sits in the overflow heap until
  /// the cursor approaches.
  static constexpr std::size_t kWheelBits = 12;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;

  /// Schedules a bare coroutine resume.
  void push_resume(Cycles time, std::coroutine_handle<> h,
                   std::uint16_t tag = 0) {
    insert(Event::make_resume(time, next_seq_++, h, tag));
  }

  /// Schedules `op->run(op)`; the event does not own `op`, which must stay
  /// in place until it fires (see EventOp).
  void push_op(Cycles time, EventOp* op, std::uint16_t tag = 0) {
    insert(Event::make_op(time, next_seq_++, op, tag));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Time of the earliest pending event. Undefined when empty.
  Cycles next_time() const;

  /// Removes and returns the earliest event (FIFO among same-time events).
  Event pop() {
    NC_ASSERT(size_ > 0, "pop on empty queue");
    // Fast path: the wheel spans [cursor_, cursor_ + kWheelSize), so the
    // cursor's own slot can only hold events at cursor_. When it is occupied
    // and nothing in the overflow heap is due at that instant, its head is
    // the global minimum; the cursor stays put.
    const std::size_t cur = static_cast<std::size_t>(cursor_) & kWheelMask;
    if (buckets_[cur].head != kNil &&
        (overflow_.empty() || overflow_.front().time > cursor_)) [[likely]] {
      --size_;
      return take_head(cur);
    }
    return pop_slow();
  }

  /// Wheel/overflow occupancy counters since construction.
  const EventQueueStats& stats() const { return stats_; }

  /// Nodes in the wheel's pool, live or free. Only grows when no free node
  /// is left, so it never exceeds the peak number of pending wheel events.
  std::size_t node_capacity() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kWheelMask = kWheelSize - 1;

  /// One wheel slot: a FIFO of pool nodes linked through Event::next_.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Fast path: a non-empty queue and a time inside the wheel horizon,
  /// appended to its bucket in O(1). The empty-queue snap, the below-cursor
  /// rebuild and overflow go through insert_slow.
  void insert(const Event& e) {
    if (size_ != 0 && e.time >= cursor_ &&
        e.time - cursor_ < static_cast<Cycles>(kWheelSize)) [[likely]] {
      append(static_cast<std::size_t>(e.time) & kWheelMask, e);
      ++stats_.wheel_pushes;
      ++size_;
      return;
    }
    insert_slow(e);
  }
  void insert_slow(const Event& e);
  void place(const Event& e, bool account = true);

  /// Links `e` at the tail of bucket `idx`, reusing a free node if any.
  void append(std::size_t idx, const Event& e) {
    std::uint32_t n = free_;
    if (n != kNil) [[likely]] {
      free_ = nodes_[n].next_;
    } else {
      n = grow_pool();
    }
    Event& node = nodes_[n];
    node = e;
    node.next_ = kNil;
    Bucket& b = buckets_[idx];
    if (b.tail == kNil) {
      b.head = n;
      occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    } else {
      nodes_[b.tail].next_ = n;
    }
    b.tail = n;
  }
  /// Appends one node to the pool and returns its index.
  std::uint32_t grow_pool();

  /// Unlinks the head of (non-empty) bucket `idx` and frees its node (which
  /// keeps a stale copy of the event until the node is reused).
  Event take_head(std::size_t idx) {
    Bucket& b = buckets_[idx];
    const std::uint32_t n = b.head;
    Event& node = nodes_[n];
    b.head = node.next_;
    if (b.head == kNil) {
      b.tail = kNil;
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
    const Event e = node;
    node.next_ = free_;
    free_ = n;
    return e;
  }

  /// pop() when the cursor's slot is empty or the overflow heap is due:
  /// scans the wheel and merges with the heap, then advances the cursor.
  Event pop_slow();
  /// Re-buckets every wheel event relative to a lower cursor. The cursor
  /// snaps to the first push into an empty queue, so a handler that
  /// schedules +100 and then +5 into an empty queue lands below it.
  void rebuild(Cycles new_cursor);
  /// Earliest occupied wheel slot time, or -1 if the wheel is empty.
  Cycles wheel_next_time() const;

  std::vector<Event> nodes_;             // node pool: wheel events + free
  std::uint32_t free_ = kNil;            // free-list head (through next_)
  std::array<Bucket, kWheelSize> buckets_{};
  std::array<std::uint64_t, kWheelSize / 64> occupied_{};  // bucket bitmap
  std::vector<Event> overflow_;  // min-heap by (time, seq)
  Cycles cursor_ = 0;            // all pending events have time >= cursor_
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace netcache::sim
