#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "src/common/nc_assert.hpp"

namespace netcache::sim {

namespace {

/// Heap comparator: true when `a` fires after `b` (min-heap on (time, seq)).
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::insert_slow(const Event& e) {
  if (size_ == 0) {
    // Empty queue: the cursor can snap anywhere, no events constrain it.
    cursor_ = e.time;
  } else if (e.time < cursor_) {
    rebuild(e.time);
  }
  place(e);
  ++size_;
}

void EventQueue::place(const Event& e, bool account) {
  NC_ASSERT(e.time >= cursor_, "event below cursor");
  if (e.time - cursor_ < static_cast<Cycles>(kWheelSize)) {
    append(static_cast<std::size_t>(e.time) & kWheelMask, e);
    if (account) ++stats_.wheel_pushes;
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    if (account) ++stats_.overflow_pushes;
  }
}

std::uint32_t EventQueue::grow_pool() {
  NC_ASSERT(nodes_.size() < kNil, "event node pool exhausted");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::rebuild(Cycles new_cursor) {
  // Copy every wheel event out, bucket by bucket in FIFO order, and empty
  // the pool and the buckets.
  std::vector<Event> pending;
  pending.reserve(size_ - overflow_.size());
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t idx =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::uint32_t n = buckets_[idx].head; n != kNil;
           n = nodes_[n].next_) {
        pending.push_back(nodes_[n]);
      }
    }
  }
  buckets_.fill(Bucket{});
  occupied_.fill(0);
  nodes_.clear();
  free_ = kNil;
  cursor_ = new_cursor;
  // Re-bucketing relocates events that were already accounted at insertion.
  for (const Event& e : pending) place(e, /*account=*/false);
}

Cycles EventQueue::wheel_next_time() const {
  const std::size_t words = occupied_.size();
  std::size_t start = static_cast<std::size_t>(cursor_) & kWheelMask;
  std::size_t w0 = start >> 6;
  // First word: only bits at/after the cursor's slot belong to this lap.
  std::uint64_t first = occupied_[w0] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t step = 0; step <= words; ++step) {
    std::size_t w = (w0 + step) & (words - 1);
    std::uint64_t bits = (step == 0) ? first
                         : (step == words)
                             ? occupied_[w] & ~(~std::uint64_t{0} << (start & 63))
                             : occupied_[w];
    if (bits) {
      std::size_t idx = (w << 6) +
                        static_cast<std::size_t>(std::countr_zero(bits));
      return cursor_ + static_cast<Cycles>((idx - start) & kWheelMask);
    }
  }
  return -1;
}

Cycles EventQueue::next_time() const {
  NC_ASSERT(size_ > 0, "next_time on empty queue");
  Cycles tw = wheel_next_time();
  if (overflow_.empty()) return tw;
  Cycles to = overflow_.front().time;
  return (tw < 0 || to < tw) ? to : tw;
}

Event EventQueue::pop_slow() {
  Cycles tw = wheel_next_time();
  std::size_t idx = static_cast<std::size_t>(tw) & kWheelMask;
  bool from_wheel;
  if (tw < 0) {
    from_wheel = false;
  } else if (overflow_.empty() || tw < overflow_.front().time) {
    from_wheel = true;
  } else if (overflow_.front().time < tw) {
    from_wheel = false;
  } else {
    // Same instant in both structures: the smaller insertion seq fires first.
    from_wheel = nodes_[buckets_[idx].head].seq < overflow_.front().seq;
  }

  Event e;
  if (from_wheel) {
    e = take_head(idx);
  } else {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    e = overflow_.back();
    overflow_.pop_back();
  }
  // The popped event is the global minimum, so every remaining event is at or
  // after it: the cursor may advance, widening the wheel horizon.
  cursor_ = e.time;
  --size_;
  return e;
}

}  // namespace netcache::sim
