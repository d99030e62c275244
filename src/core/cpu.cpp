#include "src/core/cpu.hpp"

#include "src/core/machine.hpp"
#include "src/verify/oracle.hpp"

namespace netcache::core {

namespace {

verify::CoherenceOracle::FillSource to_oracle(FillSource source) {
  switch (source) {
    case FillSource::kRing: return verify::CoherenceOracle::FillSource::kRing;
    case FillSource::kForward:
      return verify::CoherenceOracle::FillSource::kForward;
    case FillSource::kMemory: break;
  }
  return verify::CoherenceOracle::FillSource::kMemory;
}

}  // namespace

Cpu::Cpu(Machine& machine, Node& node)
    : machine_(&machine),
      node_(&node),
      engine_(&machine.engine()),
      config_(&machine.config()),
      lat_(&machine.latencies()),
      as_(&machine.address_space()),
      oracle_(machine.oracle()) {}

void Cpu::ReadAwaiter::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  ++cpu_->node_->stats().reads;
  t0_ = cpu_->engine_->now();
  // L1 tag check (1 pcycle; hits complete in the op).
  cpu_->engine_->schedule_op(
      cpu_->lat_->l1_tag_check, this,
      sim::make_trace_tag(cpu_->id(), sim::TraceTagKind::kRead));
}

void Cpu::ReadAwaiter::tag_checked(sim::EventOp* op) {
  auto* self = static_cast<ReadAwaiter*>(op);
  Cpu& cpu = *self->cpu_;
  const Addr addr = self->addr_;
  if (cpu.node_->l1().probe(addr, cpu.engine_->now())) {
    NodeStats& st = cpu.node_->stats();
    if (cpu.oracle_ != nullptr) cpu.oracle_->on_hit(cpu.id(), addr, "L1");
    ++st.l1_hits;
    st.read_cycles += cpu.engine_->now() - self->t0_;
    st.read_latency_hist.record(cpu.engine_->now() - self->t0_);
    self->caller_.resume();
    return;
  }
  self->miss_ = cpu.read_miss(addr, self->t0_);
  self->miss_.start(self->caller_);
}

sim::Task<void> Cpu::read_miss(Addr addr, Cycles t0) {
  NodeStats& st = node_->stats();
  const std::uint16_t tag = sim::make_trace_tag(id(), sim::TraceTagKind::kRead);

  // L2 tag check; a hit costs l2_hit_cycles total.
  co_await engine_->delay(lat_->l2_tag_check, tag);
  if (node_->l2().probe(addr, engine_->now())) {
    if (oracle_ != nullptr) oracle_->on_hit(id(), addr, "L2");
    co_await engine_->delay(
        config_->l2_hit_cycles - lat_->l1_tag_check - lat_->l2_tag_check, tag);
    ++st.l2_hits;
    if (config_->sequential_prefetch &&
        node_->take_prefetched(block_base(addr, config_->l2.block_bytes))) {
      ++st.prefetches_useful;
    }
    // An invalidation may have landed during the hit latency; refilling L1
    // then would resurrect the dead line and let it serve (stale) hits
    // indefinitely. The load itself still completes with the value it
    // sampled at the tag check.
    if (node_->l2().contains(addr)) {
      node_->l1().insert(addr, cache::LineState::kValid, engine_->now());
    }
    st.read_cycles += engine_->now() - t0;
    st.read_latency_hist.record(engine_->now() - t0);
    co_return;
  }

  // L2 miss. A prefetch already in flight for this block turns the miss
  // into a (shorter) wait for its completion.
  const bool priv = as_->is_private(addr);
  if (config_->sequential_prefetch && !priv) {
    Addr blk = block_base(addr, config_->l2.block_bytes);
    if (node_->prefetch_in_flight(blk)) {
      while (node_->prefetch_in_flight(blk)) {
        co_await node_->prefetch_waiters().wait(*engine_, {id(), "cpu"});
      }
      node_->take_prefetched(blk);
      if (oracle_ != nullptr) oracle_->on_hit(id(), addr, "L2");
      ++st.prefetches_useful;
      ++st.l2_hits;
      co_await engine_->delay(
          config_->l2_hit_cycles - lat_->l1_tag_check - lat_->l2_tag_check,
          tag);
      // Same in-flight race as the plain L2 hit above.
      if (node_->l2().contains(addr)) {
        node_->l1().insert(addr, cache::LineState::kValid, engine_->now());
      }
      st.read_cycles += engine_->now() - t0;
      st.read_latency_hist.record(engine_->now() - t0);
      co_return;
    }
  }
  const Cycles tmiss = engine_->now();
  FetchResult fr{};
  if (priv) {
    ++st.local_mem_reads;
    co_await node_->mem().read_block(tag);
  } else {
    fr = co_await machine_->interconnect().fetch_block(
        id(), block_base(addr, config_->l2.block_bytes));
    if (oracle_ != nullptr) {
      oracle_->on_fill(id(), block_base(addr, config_->l2.block_bytes),
                       to_oracle(fr.source));
    }
    if (as_->home(addr) == id()) {
      ++st.local_mem_reads;
    } else {
      ++st.l2_misses;
      st.l2_miss_cycles += engine_->now() - tmiss;
    }
  }

  // Fill L2 (evicting if needed) and L1.
  auto evicted = node_->l2().insert(addr, fr.fill_state, engine_->now());
  if (evicted && !as_->is_private(evicted->block_base)) {
    if (oracle_ != nullptr) oracle_->on_evict(id(), evicted->block_base);
    machine_->interconnect().on_l2_eviction(id(), evicted->block_base,
                                            evicted->state);
  }
  if (evicted) {
    // Keep L1 inclusive enough: drop any stale L1 copies of the victim.
    node_->invalidate_l1_block(evicted->block_base);
  }
  node_->l1().insert(addr, cache::LineState::kValid, engine_->now());
  st.read_cycles += engine_->now() - t0;
  st.read_latency_hist.record(engine_->now() - t0);

  if (config_->sequential_prefetch && !priv) {
    Addr next = block_base(addr, config_->l2.block_bytes) +
                static_cast<Addr>(config_->l2.block_bytes);
    if (!node_->l2().contains(next) && !node_->prefetch_in_flight(next)) {
      node_->mark_prefetch_started(next);
      engine_->spawn(prefetch(next), 0, tag);
    }
  }
}

sim::Task<void> Cpu::prefetch(Addr block) {
  NodeStats& st = node_->stats();
  ++st.prefetches_issued;
  core::FetchResult fr;
  const std::uint16_t tag = sim::make_trace_tag(id(), sim::TraceTagKind::kRead);
  if (as_->home(block) == id()) {
    co_await node_->mem().read_block(tag);
  } else {
    fr = co_await machine_->interconnect().fetch_block(id(), block);
  }
  if (oracle_ != nullptr) oracle_->on_fill(id(), block, to_oracle(fr.source));
  // The demand stream may have brought the block in meanwhile; insert() is
  // idempotent in that case.
  auto evicted = node_->l2().insert(block, fr.fill_state, engine_->now());
  if (evicted && !as_->is_private(evicted->block_base)) {
    if (oracle_ != nullptr) oracle_->on_evict(id(), evicted->block_base);
    machine_->interconnect().on_l2_eviction(id(), evicted->block_base,
                                            evicted->state);
  }
  if (evicted) node_->invalidate_l1_block(evicted->block_base);
  node_->mark_prefetch_filled(block);
}

void Cpu::WriteAwaiter::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  ++cpu_->node_->stats().writes;
  cpu_->engine_->schedule_op(
      1, this, sim::make_trace_tag(cpu_->id(), sim::TraceTagKind::kWrite));
}

void Cpu::WriteAwaiter::insert(sim::EventOp* op) {
  auto* self = static_cast<WriteAwaiter*>(op);
  Cpu& cpu = *self->cpu_;
  const bool priv = cpu.as_->is_private(self->addr_);
  if (cpu.node_->wb().add(self->addr_, self->bytes_, priv)) {
    cpu.store_buffered(self->addr_, priv);
    self->caller_.resume();
    return;
  }
  self->stall_ = cpu.write_stall(self->addr_, self->bytes_, priv);
  self->stall_.start(self->caller_);
}

sim::Task<void> Cpu::write_stall(Addr addr, int bytes, bool priv) {
  NodeStats& st = node_->stats();
  do {
    const Cycles w0 = engine_->now();
    co_await node_->wb().space_waiters().wait(*engine_, {id(), "cpu"});
    st.wb_full_stall_cycles += engine_->now() - w0;
  } while (!node_->wb().add(addr, bytes, priv));
  store_buffered(addr, priv);
}

void Cpu::store_buffered(Addr addr, bool priv) {
  if (oracle_ != nullptr && !priv) oracle_->on_store_buffered(id(), addr);
  node_->wb().data_waiters().notify_all(*engine_);
}

void Cpu::ComputeAwaiter::await_suspend(std::coroutine_handle<> caller) {
  cpu->node_->stats().compute_cycles += cycles;
  cpu->engine_->schedule_resume(
      cycles, caller,
      sim::make_trace_tag(cpu->id(), sim::TraceTagKind::kCompute));
}

}  // namespace netcache::core
