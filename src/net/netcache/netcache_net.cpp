#include "src/net/netcache/netcache_net.hpp"

#include "src/common/nc_assert.hpp"
#include "src/faults/faults.hpp"
#include "src/net/update_common.hpp"
#include "src/verify/oracle.hpp"

namespace netcache::net {

namespace {
/// Coherence channel assignment: node id parity picks the channel, the rest
/// of the id picks the member position (paper Section 3.2).
int coherence_channel_of(NodeId node) { return node % 2; }
int coherence_member_of(NodeId node) { return node / 2; }
}  // namespace

NetCacheNet::NetCacheNet(core::Machine& machine, bool with_ring)
    : machine_(&machine),
      lat_(&machine.latencies()),
      oracle_(machine.oracle()),
      faults_(machine.faults()),
      request_channel_(machine.engine(), machine.nodes(), 1) {
  const MachineConfig& cfg = machine.config();
  int members = (cfg.nodes + 1) / 2;
  for (int c = 0; c < 2; ++c) {
    coherence_channels_.push_back(
        std::make_unique<sim::VarSlotTdma>(machine.engine(), members, 2));
  }
  for (int n = 0; n < cfg.nodes; ++n) {
    home_channels_.push_back(std::make_unique<sim::Resource>(machine.engine()));
  }
  if (with_ring) {
    ring_ = std::make_unique<RingCache>(
        cfg.ring, lat_->ring_roundtrip, lat_->ring_read_overhead, cfg.nodes,
        cfg.ring.block_bytes, machine.rng());
    // Window entries are only created for blocks resident on the ring, so
    // the ring capacity is the natural working-set hint.
    update_window_.reserve(static_cast<std::size_t>(ring_->capacity_blocks()));
  }
  window_cycles_ = 2 * lat_->ring_roundtrip;
}

sim::Task<void> NetCacheNet::request_traffic(NodeId requester) {
  co_await request_channel_.transmit(requester);
  co_await machine_->engine().delay(lat_->flight);
}

sim::Task<void> NetCacheNet::wait_update_window(NodeId requester, Addr block) {
  auto it = update_window_.find(block);
  if (it == update_window_.end()) co_return;
  Cycles now = machine_->engine().now();
  if (it->second <= now) {
    update_window_.erase(it);
    co_return;
  }
  ++machine_->node(requester).stats().race_window_delays;
  co_await machine_->engine().delay(it->second - now);
}

sim::Task<core::FetchResult> NetCacheNet::fetch_block(NodeId requester,
                                                      Addr block) {
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);
  NodeStats& st = machine_->node(requester).stats();

  if (home == requester) {
    // Local-home miss: served by the local memory, no network traffic.
    co_await machine_->node(home).mem().read_block();
    co_return core::FetchResult{};
  }

  if (ring_) {
    co_await wait_update_window(requester, block);
    if (auto arrive = ring_->arrival_time(block, requester, eng.now())) {
      if (oracle_ != nullptr) oracle_->on_ring_hit(requester, block);
      if (machine_->config().reads_start_on_star) {
        // Shared cache hit: the read also started on the star subnetwork
        // (the home sees the block cached and disregards the request).
        eng.spawn(request_traffic(requester));
      }
      ++st.shared_cache_hits;
      ring_->touch(block, eng.now());
      co_await eng.delay(*arrive - eng.now());
      co_await eng.delay(lat_->ni_to_l2);
      co_return core::FetchResult{true, cache::LineState::kValid,
                                  core::FillSource::kRing};
    }
    if (!machine_->config().reads_start_on_star) {
      // Ring-only ablation (Section 3.4): the miss is only known once the
      // whole channel has rotated past; the star request starts then.
      Cycles detected =
          ring_->miss_detection_time(block, requester, eng.now());
      co_await eng.delay(detected - eng.now());
    }
  }

  // Star-coupler path: request channel (TDMA slot) -> home.
  co_await request_channel_.transmit(requester);
  co_await eng.delay(lat_->flight);

  std::optional<Cycles> arrive;
  if (ring_) arrive = ring_->arrival_time(block, requester, eng.now());
  if (arrive.has_value()) {
    // The block was inserted while our request was in flight; the home
    // disregards the request and we take it from the ring (one index lookup
    // instead of the old contains()+arrival_time() pair).
    if (oracle_ != nullptr) oracle_->on_ring_hit(requester, block);
    ++st.shared_cache_hits;
    ring_->touch(block, eng.now());
    co_await eng.delay(*arrive - eng.now());
    co_await eng.delay(lat_->ni_to_l2);
    co_return core::FetchResult{true, cache::LineState::kValid,
                                core::FillSource::kRing};
  }
  if (ring_) ++st.shared_cache_misses;

  if (faults_ != nullptr) co_await faults_->stall_gate(requester, home);
  co_await machine_->node(home).mem().read_block();
  Cycles transfer = lat_->block_transfer;
  if (ring_) {
    const MachineConfig& cfg = machine_->config();
    int line_blocks = cfg.ring.block_bytes / cfg.l2.block_bytes;
    if (line_blocks > 1) {
      // Wider shared-cache lines (Section 5.3.2): the home streams the
      // whole line from memory (2 words per 8 pcycles beyond the first
      // block) and the transfer grows with the line.
      co_await eng.delay((line_blocks - 1) *
                         (cfg.l2.block_bytes / kWordBytes / 2) * 8);
      transfer = lat_->payload_cycles(cfg.ring.block_bytes * 8);
    }
    // The home also places the line on the ring.
    auto ring_evicted = ring_->insert(block, eng.now());
    if (oracle_ != nullptr) oracle_->on_ring_insert(block, ring_evicted);
  }
  co_await home_channels_[static_cast<std::size_t>(home)]->use(transfer);
  co_await eng.delay(lat_->flight + lat_->ni_to_l2);
  co_return core::FetchResult{};
}

sim::Task<void> NetCacheNet::drain_write(NodeId src,
                                         const cache::WriteEntry& entry) {
  NC_ASSERT(!entry.is_private, "private write routed to the interconnect");
  NC_ASSERT(entry.dirty_words() > 0, "drained an update with no dirty words");
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(entry.block_base);
  NodeStats& st = machine_->node(src).stats();
  int words = entry.dirty_words();
  ++st.updates_sent;
  st.update_words += static_cast<std::uint64_t>(words);

  if (faults_ != nullptr) co_await faults_->transaction_gate(src);
  co_await eng.delay(lat_->l2_tag_check + lat_->write_to_ni);
  int ch = coherence_channel_of(src);
  co_await coherence_channels_[static_cast<std::size_t>(ch)]->transmit(
      coherence_member_of(src), lat_->update_message(words, true));
  co_await eng.delay(lat_->flight);

  // Broadcast delivery: every other node snoops the update into its L2
  // (commit hook + drop-update injection live in the shared helper).
  deliver_update_broadcast(*machine_, src, entry.block_base);

  if (ring_ != nullptr) {
    bool scrubbed = false;
    if (faults_ != nullptr && ring_->contains(entry.block_base) &&
        faults_->armed(faults::FaultKind::kRingSlot, eng.now())) {
      faults_->consume(faults::FaultKind::kRingSlot);
      if (faults_->recovery()) {
        // Scrub: the home drops the slot it failed to rewrite; the next
        // miss refills the line from the (current) home memory.
        ring_->drop(entry.block_base);
        if (oracle_ != nullptr) oracle_->on_ring_drop(entry.block_base);
        faults_->note_recovered();
      } else {
        // The stale copy keeps circulating until a read or the end-of-run
        // audit trips over it.
        faults_->note_unrecovered();
      }
      scrubbed = true;
    }
    if (!scrubbed) {
      const bool present = ring_->refresh(entry.block_base, eng.now());
      if (oracle_ != nullptr) {
        oracle_->on_ring_refresh(entry.block_base, present);
      }
      if (present) {
        // There is a window until the home rewrites the circulating copy;
        // reads in that window must wait (second critical race, Section 3.4).
        update_window_[entry.block_base] = eng.now() + window_cycles_;
      }
    }
  }

  // Home queues the update into memory (corrupt-update injection site) and
  // acks over the request channel.
  co_await home_memory_update(*machine_, src, home, entry.block_base, words);
  co_await request_channel_.transmit(home);
  co_await eng.delay(lat_->flight);
}

sim::Task<void> NetCacheNet::sync_message(NodeId src) {
  sim::Engine& eng = machine_->engine();
  int ch = coherence_channel_of(src);
  co_await coherence_channels_[static_cast<std::size_t>(ch)]->transmit(
      coherence_member_of(src), lat_->update_message(1, true));
  co_await eng.delay(lat_->flight);
}

}  // namespace netcache::net
