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

EventQueue::EventQueue()
    : buckets_(kWheelSize), occupied_(kWheelSize / 64, 0) {}

template <typename F>
void EventQueue::for_each_wheel_event(F&& f) {
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t idx =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::uint32_t n = buckets_[idx].head; n != kNil;
           n = nodes_[n].next_) {
        f(nodes_[n]);
      }
    }
  }
}

EventQueue::~EventQueue() {
  // Free pool nodes hold stale copies of events that already fired, so only
  // the live bucket lists and the overflow heap own callables.
  for_each_wheel_event([](Event& e) { e.discard(); });
  for (Event& e : overflow_) e.discard();
}

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
  if (e.time - cursor_ < static_cast<Cycles>(wheel_size_)) {
    append(static_cast<std::size_t>(e.time) & wheel_mask_, e);
    if (account) ++stats_.wheel_pushes;
  } else {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    if (account) {
      ++stats_.overflow_pushes;
      stats_.max_overflow_size =
          std::max<std::uint64_t>(stats_.max_overflow_size, overflow_.size());
      maybe_regrow();
    }
  }
}

std::uint32_t EventQueue::grow_pool() {
  NC_ASSERT(nodes_.size() < kNil, "event node pool exhausted");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void EventQueue::push_resume_batch(Cycles time,
                                   const std::coroutine_handle<>* hs,
                                   std::size_t n, std::uint16_t tag) {
  if (n == 0) return;
  if (size_ == 0) {
    cursor_ = time;
  } else if (time < cursor_) {
    rebuild(time);
  }
  if (time - cursor_ < static_cast<Cycles>(wheel_size_)) {
    const std::size_t idx = static_cast<std::size_t>(time) & wheel_mask_;
    for (std::size_t i = 0; i < n; ++i) {
      append(idx, Event::make_resume(time, next_seq_++, hs[i], tag));
    }
    stats_.wheel_pushes += n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      overflow_.push_back(Event::make_resume(time, next_seq_++, hs[i], tag));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
    stats_.overflow_pushes += n;
    stats_.max_overflow_size =
        std::max<std::uint64_t>(stats_.max_overflow_size, overflow_.size());
    maybe_regrow();
  }
  size_ += n;
}

void EventQueue::drain_wheel(std::vector<Event>& out) {
  for_each_wheel_event([&out](const Event& e) { out.push_back(e); });
  buckets_.assign(buckets_.size(), Bucket{});
  std::fill(occupied_.begin(), occupied_.end(), 0);
  nodes_.clear();
  free_ = kNil;
}

void EventQueue::rebuild(Cycles new_cursor) {
  std::vector<Event> pending;
  pending.reserve(size_ - overflow_.size());
  drain_wheel(pending);
  cursor_ = new_cursor;
  // Re-bucketing relocates events that were already accounted at insertion;
  // only the rebuild itself is counted.
  for (const Event& e : pending) place(e, /*account=*/false);
  ++stats_.rebuilds;
}

void EventQueue::maybe_regrow() {
  if (regrown_) return;
  if (stats_.wheel_pushes + stats_.overflow_pushes < kRegrowMinPushes) return;
  if (stats_.overflow_fraction() <= kRegrowOverflowFraction) return;

  // Gather every pending event — wheel buckets plus overflow heap — into one
  // (time, seq)-sorted list, then re-place against the doubled horizon. The
  // sort restores global insertion order so same-time events from the two
  // structures interleave into bucket FIFOs exactly as a fresh queue would
  // hold them: fire order is unchanged by the regrow.
  std::vector<Event> pending;
  pending.reserve(size_ + 1);
  drain_wheel(pending);
  pending.insert(pending.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  std::sort(pending.begin(), pending.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });

  wheel_size_ *= 2;
  wheel_mask_ = wheel_size_ - 1;
  buckets_.assign(wheel_size_, Bucket{});
  occupied_.assign(wheel_size_ / 64, 0);
  regrown_ = true;

  for (const Event& e : pending) place(e, /*account=*/false);
  ++stats_.wheel_regrows;
}

Cycles EventQueue::wheel_next_time() const {
  const std::size_t words = occupied_.size();
  std::size_t start = static_cast<std::size_t>(cursor_) & wheel_mask_;
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
      return cursor_ + static_cast<Cycles>((idx - start) & wheel_mask_);
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
  std::size_t idx = static_cast<std::size_t>(tw) & wheel_mask_;
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
