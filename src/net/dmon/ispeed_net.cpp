#include "src/net/dmon/ispeed_net.hpp"

#include "src/common/nc_assert.hpp"
#include "src/faults/faults.hpp"
#include "src/net/update_common.hpp"
#include "src/verify/oracle.hpp"

namespace netcache::net {

ISpeedNet::ISpeedNet(core::Machine& machine)
    : machine_(&machine),
      lat_(&machine.latencies()),
      oracle_(machine.oracle()),
      faults_(machine.faults()),
      fabric_(machine, /*broadcast_channels=*/1) {
  // Every block any L2 holds can have a directory entry; pre-sizing to the
  // machine-wide L2 line count kills mid-run rehash stalls on big machines.
  const MachineConfig& cfg = machine.config();
  directory_.reserve(static_cast<std::size_t>(cfg.nodes) *
                     static_cast<std::size_t>(cfg.l2.size_bytes /
                                              cfg.l2.block_bytes));
}

NodeId ISpeedNet::owner_of(Addr block_base) const {
  auto it = directory_.find(block_base);
  return it == directory_.end() ? kNoNode : it->second;
}

sim::Task<core::FetchResult> ISpeedNet::fetch_block(NodeId requester,
                                                    Addr block) {
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);

  if (home != requester) {
    co_await fabric_.send_request(requester, home);
    if (faults_ != nullptr) co_await faults_->stall_gate(requester, home);
  }

  NodeId owner = owner_of(block);
  core::FetchResult result{};
  if (owner != kNoNode && owner != requester &&
      machine_->node(owner).l2().state(block) ==
          cache::LineState::kExclusive) {
    // The owner holds the only up-to-date (dirty) copy, so the miss must be
    // forwarded ("if necessary", Section 2.2): directory lookup at the
    // home, forward on the owner's home channel, the owner's L2 access, and
    // a clean copy back on the requester's home channel. The oracle checks
    // the owner here, at the decision instant the directory/owner state was
    // sampled — by the time the forward's latencies elapse the owner may
    // have legitimately lost the copy (stale-sample race the timing model
    // tolerates).
    if (oracle_ != nullptr) oracle_->on_owner_forward(owner, block);
    co_await machine_->node(home).mem().directory_access();
    if (owner != home) {
      co_await fabric_.send_request(home, owner);
    }
    co_await eng.delay(machine_->config().l2_hit_cycles);
    co_await fabric_.send_block_reply(owner, requester);
    co_await eng.delay(lat_->ni_to_l2);
    result.fill_state = cache::LineState::kClean;
    result.source = core::FillSource::kForward;
    co_return result;
  }

  // Memory supplies the block. If nobody owned it, the requester becomes
  // the owner with a clean (shared) copy.
  co_await machine_->node(home).mem().read_block();
  if (home != requester) {
    co_await fabric_.send_block_reply(home, requester);
  }
  co_await eng.delay(lat_->ni_to_l2);
  if (owner == kNoNode || !machine_->node(owner).l2().contains(block)) {
    directory_[block] = requester;
    result.fill_state = cache::LineState::kShared;
  } else {
    result.fill_state = cache::LineState::kClean;
  }
  co_return result;
}

sim::Task<void> ISpeedNet::drain_write(NodeId src,
                                       const cache::WriteEntry& entry) {
  NC_ASSERT(!entry.is_private, "private write routed to the interconnect");
  NC_ASSERT(entry.dirty_words() > 0, "drained a write with no dirty words");
  sim::Engine& eng = machine_->engine();
  Addr block = entry.block_base;
  NodeStats& st = machine_->node(src).stats();
  core::Node& writer = machine_->node(src);

  if (writer.l2().state(block) == cache::LineState::kExclusive) {
    // Already the exclusive owner: the write completes locally.
    co_await eng.delay(lat_->l2_tag_check + lat_->ispeed_l2_write);
    if (oracle_ != nullptr) oracle_->on_store_commit(src, block);
    co_return;
  }

  // Acquire ownership: broadcast an invalidation (Table 3 DMON-I column).
  ++st.ownership_requests;
  if (faults_ != nullptr) co_await faults_->transaction_gate(src);
  co_await eng.delay(lat_->l2_tag_check + lat_->ispeed_write_to_ni);
  co_await fabric_.broadcast(src, 0, lat_->invalidate_message);
  if (oracle_ != nullptr) oracle_->on_invalidate_broadcast(block);

  // Invalidation delivery, the same snoop walk as an update broadcast.
  // drop-invalidate: one sharer misses the broadcast.
  const NodeId drop_victim =
      deliver_snoop(*machine_, src, block, faults::FaultKind::kDropInvalidate,
                    &core::Node::apply_invalidate);
  if (drop_victim != kNoNode) {
    if (faults_->recovery()) {
      // The victim's missing ack holds up the ownership grant until the
      // directory's re-sent invalidation lands (awaited, not spawned).
      co_await faults_->reinvalidate(machine_->node(drop_victim), block);
    } else {
      // The stale copy stays; the oracle's single-writer epoch check trips
      // at the grant below.
      faults_->note_unrecovered();
    }
  }
  {
    // The directory update proceeds at the home memory off the critical
    // path; it still occupies the module (contention, paper Section 5.1).
    NodeId home_node = machine_->address_space().home(block);
    machine_->engine().spawn(
        machine_->node(home_node).mem().directory_access());
  }
  directory_[block] = src;

  if (!writer.l2().contains(block)) {
    // Write miss: fetch the block before completing the write (the common
    // case is a write hit, since apps read before writing).
    NodeId home = machine_->address_space().home(block);
    if (faults_ != nullptr && home != src) {
      co_await faults_->stall_gate(src, home);
    }
    co_await machine_->node(home).mem().read_block();
    if (home != src) {
      co_await fabric_.send_block_reply(home, src);
    }
    co_await eng.delay(lat_->ni_to_l2);
    auto evicted =
        writer.l2().insert(block, cache::LineState::kExclusive, eng.now());
    if (evicted && !machine_->address_space().is_private(evicted->block_base)) {
      if (oracle_ != nullptr) oracle_->on_evict(src, evicted->block_base);
      on_l2_eviction(src, evicted->block_base, evicted->state);
      writer.invalidate_l1_block(evicted->block_base);
    }
    if (oracle_ != nullptr) {
      oracle_->on_fill(src, block, verify::CoherenceOracle::FillSource::kMemory);
    }
  }

  // Ack from the home + the final write into the L2.
  NodeId home = machine_->address_space().home(block);
  co_await fabric_.reserve(home);
  co_await eng.delay(lat_->ack + lat_->flight + lat_->ispeed_l2_write);
  if (oracle_ != nullptr) {
    // Grant check first (every pre-broadcast copy must be gone), then the
    // commit itself, which opens the new single-writer epoch.
    oracle_->on_exclusive_grant(src, block);
    oracle_->on_store_commit(src, block);
  }
  writer.l2().set_state(block, cache::LineState::kExclusive);
}

sim::Task<void> ISpeedNet::write_back(NodeId node, Addr block) {
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);
  ++machine_->node(node).stats().writebacks;
  if (home != node) {
    co_await fabric_.reserve(node);
    co_await eng.delay(lat_->tuning);
    co_await fabric_.send_block_reply(node, home);
  }
  co_await machine_->node(home).mem().write_back_block(
      machine_->config().l2.block_bytes / kWordBytes);
}

sim::Task<void> ISpeedNet::ownership_notify(NodeId node, Addr block) {
  // Owner replacement of a clean (shared-state) block: tell the home the
  // directory entry is stale; no data transfer.
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);
  if (home != node) {
    co_await fabric_.send_request(node, home);
  } else {
    co_await eng.delay(lat_->dmon_mem_request);
  }
}

void ISpeedNet::on_l2_eviction(NodeId node, Addr block,
                               cache::LineState state) {
  // Directory bookkeeping is immediate; the traffic is fire-and-forget
  // (writeback buffer semantics).
  auto release_ownership = [&] {
    auto it = directory_.find(block);
    if (it != directory_.end() && it->second == node) directory_.erase(it);
  };
  switch (state) {
    case cache::LineState::kExclusive:
      release_ownership();
      machine_->engine().spawn(write_back(node, block));
      break;
    case cache::LineState::kShared:
      release_ownership();
      machine_->engine().spawn(ownership_notify(node, block));
      break;
    default:
      break;  // clean copies are dropped silently
  }
}

sim::Task<void> ISpeedNet::sync_message(NodeId src) {
  co_await fabric_.broadcast(src, 0, lat_->update_message(1, true));
}

}  // namespace netcache::net
