// Top-level simulated multiprocessor: engine + nodes + interconnect + shared
// address space + synchronization primitives. One Machine runs one workload.
#pragma once

#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/address_space.hpp"
#include "src/core/cpu.hpp"
#include "src/core/interconnect.hpp"
#include "src/core/node.hpp"
#include "src/core/run_summary.hpp"
#include "src/core/sync.hpp"
#include "src/sim/engine.hpp"

namespace netcache::apps {
class Workload;
}
namespace netcache::verify {
class CoherenceOracle;
}
namespace netcache::faults {
class FaultPlan;
}

namespace netcache::core {

class SharerMap;

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  const LatencyParams& latencies() const { return lat_; }
  sim::Engine& engine() { return engine_; }
  AddressSpace& address_space() { return as_; }
  MachineStats& stats() { return stats_; }
  Rng& rng() { return rng_; }
  int nodes() const { return config_.nodes; }
  Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  Cpu& cpu(NodeId id) { return *cpus_[static_cast<std::size_t>(id)]; }
  Interconnect& interconnect() { return *interconnect_; }

  /// Coherence oracle, or null when the run is not verified (config.verify /
  /// NETCACHE_VERIFY=1). Every hook site guards on this pointer, so a
  /// non-verified run does zero oracle work.
  verify::CoherenceOracle* oracle() { return oracle_.get(); }
  /// Fault-injection plan, or null when config.faults.spec is empty.
  faults::FaultPlan* faults() { return faults_.get(); }

  /// Sharer-tracking directory (DESIGN.md section 16), or null when
  /// tracking is off (config.sharer_tracking = false) or run() has not
  /// wired it yet. Delivery paths fall back to the full O(nodes) snoop scan
  /// whenever this is null.
  SharerMap* sharer_map() { return sharer_map_.get(); }
  /// Snoop-delivery host-cost counters, maintained by the delivery helpers
  /// on both the tracked and full-scan paths.
  SnoopStats& snoop_stats() { return snoop_; }

  /// Synchronization primitives live as long as the machine.
  Lock& make_lock();
  Barrier& make_barrier(int parties);

  /// Runs `workload` to completion: setup, one worker coroutine per node,
  /// event loop until quiescent, then verification. Call once per Machine.
  /// `limits` bounds the run (watchdog); a drained queue with blocked
  /// workers (a protocol deadlock) or an exhausted budget throws SimError
  /// with a blocked-task report instead of returning a bogus summary.
  RunSummary run(apps::Workload& workload, const sim::RunLimits& limits = {});

 private:
  sim::Task<void> worker(apps::Workload& workload, NodeId id);

  /// Per-node context for the L2 residency hook: filters private blocks and
  /// records shared-residency changes in the sharer map.
  struct SharerHook {
    SharerMap* map;
    const AddressSpace* as;
    NodeId node;
  };
  static void on_l2_residency(void* ctx, Addr block_base, bool resident);

  MachineConfig config_;
  LatencyParams lat_;
  sim::Engine engine_;
  AddressSpace as_;
  MachineStats stats_;
  Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  // Built before the interconnect: protocols cache these raw pointers.
  std::unique_ptr<verify::CoherenceOracle> oracle_;
  std::unique_ptr<faults::FaultPlan> faults_;
  std::unique_ptr<Interconnect> interconnect_;
  // Wired in run(), before workload setup.
  std::unique_ptr<SharerMap> sharer_map_;
  std::vector<SharerHook> sharer_hooks_;
  SnoopStats snoop_;
  std::vector<std::unique_ptr<Lock>> locks_;
  std::vector<std::unique_ptr<Barrier>> barriers_;
  int workers_remaining_ = 0;
  bool ran_ = false;
};

}  // namespace netcache::core
