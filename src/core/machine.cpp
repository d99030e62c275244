#include "src/core/machine.hpp"

#include <chrono>

#include "src/apps/workload.hpp"
#include "src/common/nc_assert.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/sharer_map.hpp"
#include "src/faults/faults.hpp"
#include "src/verify/oracle.hpp"
#include "src/net/dmon/dmon_update_net.hpp"
#include "src/net/dmon/ispeed_net.hpp"
#include "src/net/lambdanet/lambdanet_net.hpp"
#include "src/net/netcache/netcache_net.hpp"

namespace netcache::core {

namespace {

std::unique_ptr<Interconnect> make_interconnect(Machine& machine) {
  switch (machine.config().system) {
    case SystemKind::kNetCache:
      return std::make_unique<net::NetCacheNet>(machine, /*with_ring=*/true);
    case SystemKind::kNetCacheNoRing:
      return std::make_unique<net::NetCacheNet>(machine, /*with_ring=*/false);
    case SystemKind::kLambdaNet:
      return std::make_unique<net::LambdaNetNet>(machine);
    case SystemKind::kDmonUpdate:
      return std::make_unique<net::DmonUpdateNet>(machine);
    case SystemKind::kDmonInvalidate:
      return std::make_unique<net::ISpeedNet>(machine);
  }
  NC_ASSERT(false, "unknown system kind");
  return nullptr;
}

/// `config` with the NETCACHE_VERIFY override applied, validated. It
/// initializes the first member, so no member is built from a bad config.
MachineConfig checked_config(MachineConfig config) {
  config.apply_verify_env();
  config.validate();
  return config;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(checked_config(config)),
      lat_(derive_latencies(config_)),
      as_(config_.nodes, config_.l2.block_bytes),
      stats_(config_.nodes),
      rng_(config_.seed) {
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  for (NodeId n = 0; n < config_.nodes; ++n) {
    nodes_.push_back(
        std::make_unique<Node>(engine_, config_, n, stats_.node(n)));
  }
  if (config_.verify) {
    oracle_ = std::make_unique<verify::CoherenceOracle>(config_, as_, engine_);
  }
  if (config_.faults.enabled()) {
    faults_ = std::make_unique<faults::FaultPlan>(config_, engine_);
  }
  interconnect_ = make_interconnect(*this);
  cpus_.reserve(static_cast<std::size_t>(config_.nodes));
  for (NodeId n = 0; n < config_.nodes; ++n) {
    cpus_.push_back(std::make_unique<Cpu>(*this, *nodes_[n]));
  }
}

Machine::~Machine() = default;

void Machine::on_l2_residency(void* ctx, Addr block_base, bool resident) {
  const SharerHook* hook = static_cast<const SharerHook*>(ctx);
  // Private blocks never receive snoops; keeping them out of the map keeps
  // its working set at the shared footprint.
  if (hook->as->is_private(block_base)) return;
  hook->map->set_resident(block_base, hook->node, resident);
}

Lock& Machine::make_lock() {
  locks_.push_back(std::make_unique<Lock>(*this));
  return *locks_.back();
}

Barrier& Machine::make_barrier(int parties) {
  barriers_.push_back(std::make_unique<Barrier>(*this, parties));
  return *barriers_.back();
}

sim::Task<void> Machine::worker(apps::Workload& workload, NodeId id) {
  co_await workload.run(cpu(id), static_cast<int>(id));
  co_await node(id).fence();
  stats_.node(id).finish_time = engine_.now();
  if (--workers_remaining_ == 0) {
    for (auto& n : nodes_) n->request_shutdown();
  }
}

RunSummary Machine::run(apps::Workload& workload,
                        const sim::RunLimits& limits) {
  NC_ASSERT(!ran_, "a Machine runs exactly one workload");
  ran_ = true;
  if (faults_ != nullptr && !config_.faults.recovery &&
      !limits.fail_on_blocked) {
    // Recovery-off outages/stalls park transactions forever; only the
    // drained-queue deadlock diagnosis turns that into a caught failure.
    throw ConfigError("faults.recovery", "false",
                      "recovery-off fault injection needs "
                      "RunLimits::fail_on_blocked to diagnose parked "
                      "transactions");
  }
  if (config_.sharer_tracking) {
    // Built here, before any L2 can change.
    sharer_map_ =
        std::make_unique<SharerMap>(config_.nodes, config_.l2.block_bytes);
    sharer_hooks_.reserve(static_cast<std::size_t>(config_.nodes));
    for (NodeId n = 0; n < config_.nodes; ++n) {
      sharer_hooks_.push_back(SharerHook{sharer_map_.get(), &as_, n});
      node(n).l2().set_residency_hook(&Machine::on_l2_residency,
                                      &sharer_hooks_.back());
    }
  }
  workload.setup(*this);
  // Setup allocated the whole shared footprint and touched no cache.
  if (oracle_ != nullptr) oracle_->size_table(as_.shared_bytes_allocated());
  workers_remaining_ = config_.nodes;
  for (NodeId n = 0; n < config_.nodes; ++n) {
    node(n).start(interconnect_.get(), oracle_.get());
  }
  for (NodeId n = 0; n < config_.nodes; ++n) {
    engine_.spawn(worker(workload, n));
  }
  auto wall0 = std::chrono::steady_clock::now();
  engine_.run(limits);
  // End-of-run sweep: every surviving cached/ring/home copy must reflect the
  // last commit, so an unmasked fault is caught even if nobody read after it.
  if (oracle_ != nullptr) oracle_->final_audit();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  RunSummary s;
  s.system = interconnect_->name();
  s.app = workload.name();
  s.nodes = config_.nodes;
  s.run_time = stats_.run_time();
  s.totals = stats_.total();
  s.shared_cache_hit_rate = stats_.shared_cache_hit_rate();
  s.avg_read_latency = stats_.avg_read_latency();
  s.avg_l2_miss_latency = stats_.avg_l2_miss_latency();
  s.read_latency_fraction = stats_.read_latency_fraction();
  s.sync_fraction = stats_.sync_fraction();
  s.read_latency_p50 = s.totals.read_latency_hist.quantile(0.50);
  s.read_latency_p90 = s.totals.read_latency_hist.quantile(0.90);
  s.read_latency_p99 = s.totals.read_latency_hist.quantile(0.99);
  s.events = engine_.events_executed();
  s.wheel_pushes = engine_.queue_stats().wheel_pushes;
  s.overflow_pushes = engine_.queue_stats().overflow_pushes;
  s.wall_seconds = wall_seconds;
  if (sharer_map_ != nullptr) snoop_.peak_blocks = sharer_map_->peak_blocks();
  s.snoop = snoop_;
  s.verify_enabled = config_.verify;
  if (oracle_ != nullptr) s.oracle = oracle_->stats();
  s.faults_enabled = faults_ != nullptr;
  if (faults_ != nullptr) s.faults = faults_->stats();
  s.verified = workload.verify();
  return s;
}

}  // namespace netcache::core
