// The LambdaNet interconnect: one WDM channel per node (the node transmits,
// everyone receives), write-update coherence, no medium arbitration.
// Serves as the paper's performance upper bound for systems that do not
// cache data on the network (Section 2.3).
#pragma once

#include <memory>
#include <vector>

#include "src/core/interconnect.hpp"
#include "src/core/machine.hpp"
#include "src/sim/resource.hpp"

namespace netcache::faults {
class FaultPlan;
}

namespace netcache::net {

class LambdaNetNet final : public core::Interconnect {
 public:
  explicit LambdaNetNet(core::Machine& machine);

  sim::Task<core::FetchResult> fetch_block(NodeId requester,
                                           Addr block_base) override;
  sim::Task<void> drain_write(NodeId src,
                              const cache::WriteEntry& entry) override;
  sim::Task<void> sync_message(NodeId src) override;
  const char* name() const override { return "LambdaNet"; }

 private:
  core::Machine* machine_;
  const LatencyParams* lat_;
  faults::FaultPlan* faults_;  // null unless faults are configured
  // Node i's transmit channel: read requests, updates, replies and acks from
  // node i all serialize here (reads and writes are NOT decoupled — one of
  // the paper's stated LambdaNet contention weaknesses).
  std::vector<std::unique_ptr<sim::Resource>> channels_;
};

}  // namespace netcache::net
