// 16-entry coalescing write buffer (paper Section 4.1). Consecutive writes
// to the same block merge into one entry; a background drainer per node pops
// entries and turns them into coherence transactions.
//
// The entries live in a fixed ring of `entries` slots, allocated once at
// construction and tracked by head and size: adds and pops never allocate,
// and the coalescing search walks the `size` live slots from the head.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/nc_assert.hpp"
#include "src/common/types.hpp"
#include "src/sim/wait_list.hpp"

namespace netcache::cache {

/// One coalesced entry: a block plus the mask of dirty 4-byte words.
struct WriteEntry {
  Addr block_base = 0;
  std::uint32_t word_mask = 0;
  bool is_private = false;

  int dirty_words() const { return __builtin_popcount(word_mask); }
};

class WriteBuffer {
 public:
  /// `block_bytes` may span at most 32 words: one bit of
  /// WriteEntry::word_mask per word (MachineConfig::validate enforces it for
  /// the L2 block).
  WriteBuffer(int entries, int block_bytes)
      : capacity_(entries), block_bytes_(block_bytes) {
    NC_ASSERT(entries >= 0, "negative write-buffer capacity");
    NC_ASSERT(block_bytes > 0 && block_bytes <= 32 * kWordBytes,
              "write-buffer block wider than the 32-bit word mask");
    ring_.resize(static_cast<std::size_t>(entries));
  }

  int capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }
  std::size_t size() const { return static_cast<std::size_t>(size_); }

  /// Records a write of `bytes` at `addr`. The caller must ensure the buffer
  /// is not full unless the write coalesces; returns false exactly when a new
  /// entry would be needed but the buffer is full (caller stalls and retries).
  bool add(Addr addr, int bytes, bool is_private);

  /// True if the write would coalesce into an existing entry.
  bool coalesces(Addr addr) const;

  /// Pops the oldest entry. Precondition: !empty().
  WriteEntry pop();

  /// True if the block containing `addr` has buffered (not yet drained)
  /// writes; reads may bypass but protocols may care.
  bool holds_block(Addr addr) const;

  // Wait lists managed by the owning node:
  sim::WaitList& space_waiters() { return space_waiters_; }
  sim::WaitList& data_waiters() { return data_waiters_; }
  sim::WaitList& idle_waiters() { return idle_waiters_; }

 private:
  /// Ring slot of the entry `i` places after the oldest (i <= size_).
  std::size_t slot(int i) const {
    const int s = head_ + i;
    return static_cast<std::size_t>(s < capacity_ ? s : s - capacity_);
  }

  int capacity_;
  int block_bytes_;
  std::vector<WriteEntry> ring_;  // capacity_ slots
  int head_ = 0;                  // slot of the oldest entry
  int size_ = 0;                  // live entries, from head_ on
  sim::WaitList space_waiters_{"WriteBuffer.space"};  // stalled on full buffer
  sim::WaitList data_waiters_{"WriteBuffer.data"};    // drainer awaiting work
  sim::WaitList idle_waiters_{"WriteBuffer.idle"};    // fences awaiting empty
};

}  // namespace netcache::cache
