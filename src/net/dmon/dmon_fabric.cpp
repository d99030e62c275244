#include "src/net/dmon/dmon_fabric.hpp"

namespace netcache::net {

DmonFabric::DmonFabric(core::Machine& machine, int broadcast_channels)
    : machine_(&machine),
      lat_(&machine.latencies()),
      control_(machine.engine(), machine.nodes(), 1) {
  for (int c = 0; c < broadcast_channels; ++c) {
    broadcast_.push_back(std::make_unique<sim::Resource>(machine.engine()));
  }
  for (int n = 0; n < machine.nodes(); ++n) {
    home_channels_.push_back(std::make_unique<sim::Resource>(machine.engine()));
  }
}

sim::Task<void> DmonFabric::send_request(NodeId requester, NodeId home) {
  sim::Engine& eng = machine_->engine();
  co_await reserve(requester);
  co_await eng.delay(lat_->tuning);  // retune the tunable transmitter
  co_await home_channels_[static_cast<std::size_t>(home)]->use(
      lat_->dmon_mem_request);
  co_await eng.delay(lat_->flight);
}

sim::Task<void> DmonFabric::send_block_reply(NodeId home, NodeId requester) {
  sim::Engine& eng = machine_->engine();
  co_await reserve(home);
  co_await home_channels_[static_cast<std::size_t>(requester)]->use(
      lat_->dmon_block_transfer);
  co_await eng.delay(lat_->flight);
}

sim::Task<void> DmonFabric::broadcast(NodeId src, int channel,
                                      Cycles message_cycles) {
  sim::Engine& eng = machine_->engine();
  co_await reserve(src);
  co_await broadcast_[static_cast<std::size_t>(channel)]->use(message_cycles);
  co_await eng.delay(lat_->flight);
}

}  // namespace netcache::net
