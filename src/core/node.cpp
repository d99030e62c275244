#include "src/core/node.hpp"

#include "src/common/nc_assert.hpp"
#include "src/verify/oracle.hpp"

namespace netcache::core {

Node::Node(sim::Engine& engine, const MachineConfig& config, NodeId id,
           NodeStats& stats)
    : engine_(&engine),
      config_(&config),
      id_(id),
      stats_(&stats),
      l1_(config.l1),
      l2_(config.l2),
      wb_(config.write_buffer_entries, config.l2.block_bytes),
      mem_(engine, config.mem_block_read_cycles, config.mem_queue_hysteresis) {
}

void Node::start(Interconnect* interconnect, verify::CoherenceOracle* oracle) {
  NC_ASSERT(interconnect != nullptr, "node started without a protocol");
  interconnect_ = interconnect;
  oracle_ = oracle;
  engine_->spawn(drain_loop());
}

void Node::request_shutdown() {
  shutdown_ = true;
  wb_.data_waiters().notify_all(*engine_);
}

sim::Task<void> Node::drain_loop() {
  for (;;) {
    while (wb_.empty()) {
      if (shutdown_) co_return;
      co_await wb_.data_waiters().wait(*engine_, {id_, "wb-drain"});
    }
    cache::WriteEntry entry = wb_.pop();
    drain_in_flight_ = true;
    wb_.space_waiters().notify_all(*engine_);
    if (entry.is_private) {
      // Private writes flow straight into the local memory.
      co_await mem_.enqueue_update(
          entry.dirty_words(),
          sim::make_trace_tag(id_, sim::TraceTagKind::kWrite));
    } else {
      if (oracle_ != nullptr) oracle_->on_drain_start(id_, entry.block_base);
      co_await interconnect_->drain_write(id_, entry);
    }
    drain_in_flight_ = false;
    if (wb_.empty()) wb_.idle_waiters().notify_all(*engine_);
  }
}

sim::Task<void> Node::fence() {
  while (!wb_.empty() || drain_in_flight_) {
    co_await wb_.idle_waiters().wait(*engine_, {id_, "fence"});
  }
  co_await mem_.wait_drained();
}

void Node::invalidate_l1_block(Addr l2_block_base) {
  // An L2 block covers possibly several (smaller) L1 blocks.
  for (int off = 0; off < config_->l2.block_bytes;
       off += config_->l1.block_bytes) {
    l1_.invalidate(l2_block_base + static_cast<Addr>(off));
  }
}

void Node::apply_remote_update(Addr block_base) {
  // Hooked here (not in the protocols) so the oracle records deliveries that
  // actually happened, not ones a protocol merely claims to have broadcast.
  if (oracle_ != nullptr) oracle_->on_update_delivered(id_, block_base);
  if (l2_.contains(block_base)) {
    invalidate_l1_block(block_base);
  }
}

void Node::apply_invalidate(Addr block_base) {
  if (oracle_ != nullptr) oracle_->on_invalidate_delivered(id_, block_base);
  if (l2_.invalidate(block_base) != cache::LineState::kInvalid) {
    ++stats_->invalidations_received;
    invalidate_l1_block(block_base);
  }
}

}  // namespace netcache::core
