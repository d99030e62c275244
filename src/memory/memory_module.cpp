#include "src/memory/memory_module.hpp"

#include <algorithm>

#include "src/common/nc_assert.hpp"

namespace netcache::memory {

Cycles MemoryModule::claim(Cycles& port, Cycles service) {
  Cycles now = engine_->now();
  Cycles start = std::max(now, port);
  contention_cycles_ += start - now;
  port = start + service;
  return port;
}

void MemoryModule::prune(Cycles now) {
  while (!update_completions_.empty() && update_completions_.front() <= now) {
    update_completions_.pop_front();
  }
}

sim::Task<void> MemoryModule::read_block(std::uint16_t tag) {
  ++reads_served_;
  Cycles done = claim(read_busy_, block_read_);
  co_await engine_->delay(done - engine_->now(), tag);
}

sim::Task<void> MemoryModule::enqueue_update(int words, std::uint16_t tag) {
  NC_ASSERT(words > 0, "memory update with no words");
  ++updates_queued_;
  Cycles now = engine_->now();
  prune(now);
  Cycles completion = claim(write_busy_, update_service(words));
  NC_ASSERT(update_completions_.empty() ||
                completion >= update_completions_.back(),
            "memory write queue completions must stay FIFO-ordered");
  update_completions_.push_back(completion);
  std::size_t pending = update_completions_.size();
  if (pending > static_cast<std::size_t>(hysteresis_)) {
    // Ack only once the queue is back at the hysteresis point: when the
    // (pending - hysteresis)-th oldest queued update completes.
    ++acks_delayed_;
    Cycles ack_at =
        update_completions_[pending - 1 -
                            static_cast<std::size_t>(hysteresis_)];
    if (ack_at > now) co_await engine_->delay(ack_at - now, tag);
  }
}

sim::Task<void> MemoryModule::write_back_block(int block_words) {
  NC_ASSERT(block_words > 0, "writeback of an empty block");
  Cycles done = claim(write_busy_, update_service(block_words));
  co_await engine_->delay(done - engine_->now());
}

sim::Task<void> MemoryModule::directory_access() {
  Cycles done = claim(read_busy_, 4);
  co_await engine_->delay(done - engine_->now());
}

sim::Task<void> MemoryModule::wait_drained() {
  Cycles now = engine_->now();
  if (write_busy_ > now) co_await engine_->delay(write_busy_ - now);
}

}  // namespace netcache::memory
