// DMON-I: the I-SPEED invalidate protocol on base DMON (paper Section 2.2).
// Home nodes keep a directory entry per block naming the current owner; the
// owner holds the block exclusive (dirty) or shared (clean); all other
// copies are clean. Writes invalidate via the broadcast channel; dirty
// evictions write back to the home memory.
#pragma once

#include <unordered_map>

#include "src/core/interconnect.hpp"
#include "src/core/machine.hpp"
#include "src/net/dmon/dmon_fabric.hpp"

namespace netcache::faults {
class FaultPlan;
}
namespace netcache::verify {
class CoherenceOracle;
}

namespace netcache::net {

class ISpeedNet final : public core::Interconnect {
 public:
  explicit ISpeedNet(core::Machine& machine);

  sim::Task<core::FetchResult> fetch_block(NodeId requester,
                                           Addr block_base) override;
  sim::Task<void> drain_write(NodeId src,
                              const cache::WriteEntry& entry) override;
  sim::Task<void> sync_message(NodeId src) override;
  void on_l2_eviction(NodeId node, Addr block_base,
                      cache::LineState state) override;
  const char* name() const override { return "DMON-I"; }

  /// Directory owner of a block, or kNoNode if memory owns it (test hook).
  NodeId owner_of(Addr block_base) const;

 private:
  sim::Task<void> write_back(NodeId node, Addr block_base);
  sim::Task<void> ownership_notify(NodeId node, Addr block_base);

  core::Machine* machine_;
  const LatencyParams* lat_;
  verify::CoherenceOracle* oracle_;  // null unless --verify
  faults::FaultPlan* faults_;        // null unless faults are configured
  DmonFabric fabric_;
  std::unordered_map<Addr, NodeId> directory_;  // absent -> memory owns
};

}  // namespace netcache::net
