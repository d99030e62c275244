// Failure-containment diagnostics for the simulation engine:
//
//  - BlockedRegistry: every suspended waiter (WaitList, Resource — and via
//    them Lock, Barrier, write buffer, prefetch parks) registers what it is
//    waiting on, under which tag (node/CPU), and since which cycle. When the
//    event queue drains while waiters remain, Engine::run() turns the
//    registry into a deadlock report instead of returning success.
//  - TraceRing: opt-in fixed-size ring of (time, kind, tag, queue depth)
//    records filled on the event fast path; near-zero cost when disabled
//    (one predictable branch per event). Dumped on failure.
//  - RunLimits: watchdog budgets for Engine::run() so protocol livelocks
//    trip a diagnostic instead of hanging the process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"

namespace netcache::sim {

/// Identifies *who* is blocked: the owning node/CPU (or kNoNode when the
/// waiter is not node-bound) plus a short role label ("cpu", "wb-drain", ...).
struct WaiterTag {
  NodeId node = kNoNode;
  const char* label = nullptr;
};

/// One registered suspended waiter.
struct BlockedInfo {
  const char* what = "?";        // primitive kind: "Lock", "Barrier", ...
  const void* target = nullptr;  // identity of the primitive waited on
  WaiterTag tag;
  Cycles since = 0;  // cycle at which the waiter suspended
};

/// O(1) add/remove slot table of currently blocked waiters. Awaiters hold
/// the returned ticket across their suspension and remove it on resume.
class BlockedRegistry {
 public:
  using Ticket = std::uint32_t;

  Ticket add(const BlockedInfo& info) {
    Ticket t;
    if (free_head_ != kNone) {
      t = free_head_;
      free_head_ = slots_[t].next_free;
    } else {
      t = static_cast<Ticket>(slots_.size());
      slots_.emplace_back();
    }
    slots_[t].info = info;
    slots_[t].live = true;
    ++live_count_;
    return t;
  }

  void remove(Ticket t) {
    NC_ASSERT(t < slots_.size() && slots_[t].live,
              "removing a dead blocked-registry ticket");
    slots_[t].live = false;
    slots_[t].next_free = free_head_;
    free_head_ = t;
    --live_count_;
  }

  std::size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Visits live entries in ticket order (stable across identical runs).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.live) fn(s.info);
    }
  }

 private:
  static constexpr Ticket kNone = ~Ticket{0};

  struct Slot {
    BlockedInfo info;
    Ticket next_free = kNone;
    bool live = false;
  };

  std::vector<Slot> slots_;
  Ticket free_head_ = kNone;
  std::size_t live_count_ = 0;
};

/// What an executed event was: a coroutine resume or a scheduled callback.
enum class TraceKind : std::uint8_t { kResume, kCallback };

const char* to_string(TraceKind kind);

/// Protocol-level meaning of a scheduled event, carried in the high bits of
/// the optional 16-bit trace tag so a failure-report tail reads as "node 3
/// read" instead of a bare sequence number.
enum class TraceTagKind : std::uint8_t {
  kNone = 0,
  kRead = 1,     // CPU load walking the hierarchy
  kWrite = 2,    // CPU store through the write buffer
  kCompute = 3,  // modeled ALU/FPU time
  kSync = 4,     // WaitList notify (locks, barriers, buffer waits)
  kGrant = 5,    // Resource handoff to the next FIFO waiter
  kFault = 6,    // fault-injection retry/backoff wakeup (src/faults/)
};

const char* to_string(TraceTagKind kind);

/// Packs (node, kind) into the 16-bit event tag: kind in the top 4 bits,
/// node id + 1 in the low 12 (0 = not node-bound, so kNoNode round-trips).
constexpr std::uint16_t make_trace_tag(NodeId node, TraceTagKind kind) {
  return static_cast<std::uint16_t>(
      (static_cast<unsigned>(kind) << 12) |
      (static_cast<unsigned>(node + 1) & 0x0FFFu));
}

constexpr TraceTagKind trace_tag_kind(std::uint16_t tag) {
  return static_cast<TraceTagKind>(tag >> 12);
}

constexpr NodeId trace_tag_node(std::uint16_t tag) {
  return static_cast<NodeId>(tag & 0x0FFFu) - 1;
}

/// One executed event, as seen by the engine's run loop.
struct TraceRecord {
  Cycles time = 0;
  std::uint64_t tag = 0;  // the event's insertion sequence number
  std::uint32_t queue_depth = 0;
  std::uint16_t user_tag = 0;  // make_trace_tag(node, kind), 0 if untagged
  TraceKind kind = TraceKind::kResume;
};

/// Fixed-size ring of the most recent TraceRecords. Disabled (zero capacity)
/// by default; recording is a store + increment when enabled.
class TraceRing {
 public:
  bool enabled() const { return !ring_.empty(); }

  /// Enables tracing with space for `capacity` records (or disables it again
  /// with capacity 0). Clears previously recorded history.
  void enable(std::size_t capacity) {
    ring_.assign(capacity, TraceRecord{});
    head_ = 0;
    recorded_ = 0;
  }

  void record(Cycles time, TraceKind kind, std::uint64_t tag,
              std::uint32_t queue_depth, std::uint16_t user_tag = 0) {
    ring_[head_] = TraceRecord{time, tag, queue_depth, user_tag, kind};
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++recorded_;
  }

  std::size_t capacity() const { return ring_.size(); }

  /// Total records ever written (>= what the ring still holds).
  std::uint64_t recorded() const { return recorded_; }

  /// Visits the retained tail (oldest first, up to capacity() records).
  template <typename Fn>
  void for_each_tail(Fn&& fn) const {
    std::size_t held = recorded_ < ring_.size()
                           ? static_cast<std::size_t>(recorded_)
                           : ring_.size();
    std::size_t start = (head_ + ring_.size() - held) % ring_.size();
    for (std::size_t i = 0; i < held; ++i) {
      fn(ring_[(start + i) % ring_.size()]);
    }
  }

  /// Renders the retained tail, one record per line.
  std::string dump() const;

 private:
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Watchdog budgets for Engine::run(). Zero means "unlimited" for the
/// numeric fields. All trips throw SimError with a full diagnostic report.
struct RunLimits {
  /// Virtual-time budget: fail once an event at or past this cycle fires.
  Cycles max_cycles = 0;
  /// Executed-event budget for this run() call.
  std::uint64_t max_events = 0;
  /// Stall heuristic: fail when more than this many consecutive events fire
  /// without virtual time advancing (a zero-delay livelock, e.g. a NACK/retry
  /// loop). Must be set far above legitimate same-cycle bursts (a barrier
  /// release resumes one event per party at one instant).
  std::uint64_t max_stalled_events = 0;
  /// When true (the default), a drained event queue with registered blocked
  /// waiters is a deadlock: run() throws instead of returning success.
  /// Disable only for deliberate stepwise runs that park waiters on purpose.
  bool fail_on_blocked = true;
};

/// Formats the blocked-waiter table, one line per waiter.
std::string format_blocked_report(const BlockedRegistry& blocked, Cycles now);

}  // namespace netcache::sim
