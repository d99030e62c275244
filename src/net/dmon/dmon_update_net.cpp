#include "src/net/dmon/dmon_update_net.hpp"

#include "src/common/nc_assert.hpp"
#include "src/faults/faults.hpp"
#include "src/net/update_common.hpp"

namespace netcache::net {

DmonUpdateNet::DmonUpdateNet(core::Machine& machine)
    : machine_(&machine),
      lat_(&machine.latencies()),
      faults_(machine.faults()),
      fabric_(machine, /*broadcast_channels=*/2) {}

sim::Task<core::FetchResult> DmonUpdateNet::fetch_block(NodeId requester,
                                                        Addr block) {
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);
  if (home == requester) {
    co_await machine_->node(home).mem().read_block();
    co_return core::FetchResult{};
  }
  co_await fabric_.send_request(requester, home);
  if (faults_ != nullptr) co_await faults_->stall_gate(requester, home);
  // Memory is always up to date under update coherence: the home replies
  // immediately.
  co_await machine_->node(home).mem().read_block();
  co_await fabric_.send_block_reply(home, requester);
  co_await eng.delay(lat_->ni_to_l2);
  co_return core::FetchResult{};
}

sim::Task<void> DmonUpdateNet::drain_write(NodeId src,
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
  co_await fabric_.broadcast(src, fabric_.broadcast_channel_of(src),
                             lat_->update_message(words, true));
  deliver_update_broadcast(*machine_, src, entry.block_base);
  co_await home_memory_update(*machine_, src, home, entry.block_base, words);
  // Ack: reservation + short message back on the broadcast channel.
  co_await fabric_.reserve(home);
  co_await eng.delay(lat_->ack + lat_->flight);
}

sim::Task<void> DmonUpdateNet::sync_message(NodeId src) {
  co_await fabric_.broadcast(src, fabric_.broadcast_channel_of(src),
                             lat_->update_message(1, true));
}

}  // namespace netcache::net
