// The NetCache interconnect: star-coupler subnetwork (request channel with
// TDMA, two coherence channels, per-node home channels) plus the ring shared
// cache, with the paper's update-based coherence protocol (Section 3.4).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/interconnect.hpp"
#include "src/core/machine.hpp"
#include "src/net/netcache/ring_cache.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/tdma.hpp"

namespace netcache::faults {
class FaultPlan;
}
namespace netcache::verify {
class CoherenceOracle;
}

namespace netcache::net {

class NetCacheNet final : public core::Interconnect {
 public:
  /// `with_ring` false builds the Section 5.1 ablation (star coupler only).
  NetCacheNet(core::Machine& machine, bool with_ring);

  sim::Task<core::FetchResult> fetch_block(NodeId requester,
                                           Addr block_base) override;
  sim::Task<void> drain_write(NodeId src,
                              const cache::WriteEntry& entry) override;
  sim::Task<void> sync_message(NodeId src) override;
  const char* name() const override {
    return ring_ ? "NetCache" : "NetCache-NoRing";
  }

  RingCache* ring() { return ring_.get(); }

 private:
  /// Fire-and-forget request-channel traffic for reads satisfied by the ring
  /// (the request is still sent; the home disregards it).
  sim::Task<void> request_traffic(NodeId requester);

  /// Update-window race FIFO (Section 3.4): reads of recently updated blocks
  /// wait until the ring copy is guaranteed refreshed.
  sim::Task<void> wait_update_window(NodeId requester, Addr block);

  core::Machine* machine_;
  const LatencyParams* lat_;
  verify::CoherenceOracle* oracle_;  // null unless the run is verified
  faults::FaultPlan* faults_;        // null unless faults are configured
  sim::TdmaChannel request_channel_;
  std::vector<std::unique_ptr<sim::VarSlotTdma>> coherence_channels_;
  std::vector<std::unique_ptr<sim::Resource>> home_channels_;
  std::unique_ptr<RingCache> ring_;
  std::unordered_map<Addr, Cycles> update_window_;  // block -> safe time
  Cycles window_cycles_;
};

}  // namespace netcache::net
