#include "src/net/lambdanet/lambdanet_net.hpp"

#include "src/common/nc_assert.hpp"
#include "src/faults/faults.hpp"
#include "src/net/update_common.hpp"

namespace netcache::net {

LambdaNetNet::LambdaNetNet(core::Machine& machine)
    : machine_(&machine), lat_(&machine.latencies()),
      faults_(machine.faults()) {
  for (int n = 0; n < machine.nodes(); ++n) {
    channels_.push_back(std::make_unique<sim::Resource>(machine.engine()));
  }
}

sim::Task<core::FetchResult> LambdaNetNet::fetch_block(NodeId requester,
                                                       Addr block) {
  sim::Engine& eng = machine_->engine();
  NodeId home = machine_->address_space().home(block);
  if (home == requester) {
    co_await machine_->node(home).mem().read_block();
    co_return core::FetchResult{};
  }
  // Request on the requester's own channel, reply on the home's channel.
  co_await channels_[static_cast<std::size_t>(requester)]->use(
      lat_->mem_request);
  co_await eng.delay(lat_->flight);
  if (faults_ != nullptr) co_await faults_->stall_gate(requester, home);
  co_await machine_->node(home).mem().read_block();
  co_await channels_[static_cast<std::size_t>(home)]->use(
      lat_->block_transfer);
  co_await eng.delay(lat_->flight + lat_->ni_to_l2);
  co_return core::FetchResult{};
}

sim::Task<void> LambdaNetNet::drain_write(NodeId src,
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
  co_await channels_[static_cast<std::size_t>(src)]->use(
      lat_->update_message(words, false));
  co_await eng.delay(lat_->flight);
  deliver_update_broadcast(*machine_, src, entry.block_base);
  co_await home_memory_update(*machine_, src, home, entry.block_base, words);
  co_await channels_[static_cast<std::size_t>(home)]->use(lat_->ack);
  co_await eng.delay(lat_->flight);
}

sim::Task<void> LambdaNetNet::sync_message(NodeId src) {
  sim::Engine& eng = machine_->engine();
  co_await channels_[static_cast<std::size_t>(src)]->use(
      lat_->update_message(1, false));
  co_await eng.delay(lat_->flight);
}

}  // namespace netcache::net
