// DMON-U: the update-based coherence protocol on the DMON network extended
// with a second broadcast channel for update traffic (paper Sections 2.2/2.3,
// protocol from the authors' OPTNET report [4]).
#pragma once

#include "src/core/interconnect.hpp"
#include "src/core/machine.hpp"
#include "src/net/dmon/dmon_fabric.hpp"

namespace netcache::faults {
class FaultPlan;
}

namespace netcache::net {

class DmonUpdateNet final : public core::Interconnect {
 public:
  explicit DmonUpdateNet(core::Machine& machine);

  sim::Task<core::FetchResult> fetch_block(NodeId requester,
                                           Addr block_base) override;
  sim::Task<void> drain_write(NodeId src,
                              const cache::WriteEntry& entry) override;
  sim::Task<void> sync_message(NodeId src) override;
  const char* name() const override { return "DMON-U"; }

 private:
  core::Machine* machine_;
  const LatencyParams* lat_;
  faults::FaultPlan* faults_;  // null unless faults are configured
  DmonFabric fabric_;
};

}  // namespace netcache::net
