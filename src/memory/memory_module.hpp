// Per-node memory module. Dual-ported, as the paper's protocols assume: the
// read port serves block reads (and directory lookups) immediately, while
// the update stream drains through a FIFO write queue whose
// acknowledgements are withheld once it grows past a hysteresis point
// (paper Section 3.4 flow control).
#pragma once

#include <cstdint>
#include <deque>

#include "src/common/types.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace netcache::memory {

class MemoryModule {
 public:
  MemoryModule(sim::Engine& engine, Cycles block_read_cycles, int hysteresis)
      : engine_(&engine),
        block_read_(block_read_cycles),
        hysteresis_(hysteresis) {}

  /// Completes when the requested block's data has been read out of the
  /// module (FIFO behind other reads on the read port). `tag` annotates the
  /// completion wakeup in the trace ring (sim::Engine::delay).
  sim::Task<void> read_block(std::uint16_t tag = 0);

  /// Queues a coalesced update of `words` 4-byte words on the write port.
  /// Completes when the acknowledgement may be sent: immediately after
  /// queueing if the queue is at or below the hysteresis point, otherwise
  /// when it drains back to it. `tag` as in read_block().
  sim::Task<void> enqueue_update(int words, std::uint16_t tag = 0);

  /// Applies a block writeback (DMON-I): occupies the write port like an
  /// update of a full block, no ack flow control.
  sim::Task<void> write_back_block(int block_words);

  /// A directory entry access on the read port (DMON-I forwards).
  sim::Task<void> directory_access();

  /// Completes when every queued write-port operation has been applied.
  sim::Task<void> wait_drained();

  Cycles busy_until() const { return std::max(read_busy_, write_busy_); }
  std::uint64_t reads_served() const { return reads_served_; }
  std::uint64_t updates_queued() const { return updates_queued_; }
  std::uint64_t acks_delayed() const { return acks_delayed_; }
  Cycles contention_cycles() const { return contention_cycles_; }

  /// Service time for a `words`-word update.
  static Cycles update_service(int words) {
    return words < 2 ? 2 : static_cast<Cycles>(words);
  }

 private:
  Cycles claim(Cycles& port, Cycles service);
  void prune(Cycles now);

  sim::Engine* engine_;
  Cycles block_read_;
  int hysteresis_;
  Cycles read_busy_ = 0;
  Cycles write_busy_ = 0;
  std::deque<Cycles> update_completions_;  // oldest first
  std::uint64_t reads_served_ = 0;
  std::uint64_t updates_queued_ = 0;
  std::uint64_t acks_delayed_ = 0;
  Cycles contention_cycles_ = 0;
};

}  // namespace netcache::memory
