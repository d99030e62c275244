// Runtime coherence oracle tests (src/verify/): every protocol stack runs
// clean under the oracle on real workloads, verification never perturbs
// timing, and a seeded protocol mutant (a dropped update broadcast with
// recovery off) is caught with a full failure report. See DESIGN.md §11.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/apps/workload.hpp"
#include "src/common/config.hpp"
#include "src/core/machine.hpp"
#include "src/core/report.hpp"
#include "src/core/run_summary.hpp"

namespace netcache {
namespace {

using core::Machine;
using core::RunSummary;

constexpr SystemKind kAllSystems[] = {
    SystemKind::kNetCache, SystemKind::kNetCacheNoRing, SystemKind::kLambdaNet,
    SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate};

MachineConfig config_for(SystemKind kind) {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.system = kind;
  return cfg;
}

RunSummary run_app(MachineConfig cfg, const std::string& app) {
  Machine machine(cfg);
  apps::WorkloadParams params;
  params.scale = 0.2;  // reduced inputs keep the full matrix fast
  auto workload = apps::make_workload(app, params);
  return machine.run(*workload);
}

TEST(Oracle, AllSystemsRunCleanOnGauss) {
  for (SystemKind kind : kAllSystems) {
    MachineConfig cfg = config_for(kind);
    cfg.verify = true;
    RunSummary s = run_app(cfg, "gauss");
    EXPECT_TRUE(s.verified) << to_string(kind);
    EXPECT_TRUE(s.verify_enabled) << to_string(kind);
    EXPECT_GT(s.oracle.loads_checked, 0u) << to_string(kind);
    EXPECT_GT(s.oracle.stores_committed, 0u) << to_string(kind);
    EXPECT_GT(s.oracle.blocks_tracked, 0u) << to_string(kind);
  }
}

TEST(Oracle, AllSystemsRunCleanOnWf) {
  for (SystemKind kind : kAllSystems) {
    MachineConfig cfg = config_for(kind);
    cfg.verify = true;
    RunSummary s = run_app(cfg, "wf");
    EXPECT_TRUE(s.verified) << to_string(kind);
    EXPECT_GT(s.oracle.loads_checked, 0u) << to_string(kind);
  }
}

TEST(Oracle, ProtocolSpecificCountersFire) {
  MachineConfig nc = config_for(SystemKind::kNetCache);
  nc.verify = true;
  RunSummary s = run_app(nc, "gauss");
  EXPECT_GT(s.oracle.ring_checks, 0u);
  EXPECT_GT(s.oracle.updates_delivered, 0u);
  EXPECT_GT(s.oracle.drains_checked, 0u);

  MachineConfig di = config_for(SystemKind::kDmonInvalidate);
  di.verify = true;
  RunSummary inv = run_app(di, "gauss");
  EXPECT_GT(inv.oracle.grants_checked, 0u);
  EXPECT_GT(inv.oracle.invalidations_delivered, 0u);
  EXPECT_EQ(inv.oracle.updates_delivered, 0u);
}

TEST(Oracle, VerificationDoesNotPerturbTiming) {
  // The oracle is a pure observer: cycle-for-cycle and event-for-event the
  // run must be bit-identical with verification on and off. The CI verify
  // job forces the oracle on via the environment; drop that here so the
  // "off" half of the comparison really is off.
  unsetenv("NETCACHE_VERIFY");
  for (SystemKind kind : kAllSystems) {
    MachineConfig off = config_for(kind);
    MachineConfig on = config_for(kind);
    on.verify = true;
    RunSummary a = run_app(off, "gauss");
    RunSummary b = run_app(on, "gauss");
    EXPECT_EQ(a.run_time, b.run_time) << to_string(kind);
    EXPECT_EQ(a.events, b.events) << to_string(kind);
    EXPECT_FALSE(a.verify_enabled);
    EXPECT_TRUE(b.verify_enabled);
  }
}

TEST(Oracle, SummaryAndReportCarryOracleCounters) {
  MachineConfig cfg = config_for(SystemKind::kDmonUpdate);
  cfg.verify = true;
  Machine machine(cfg);
  apps::WorkloadParams params;
  params.scale = 0.2;
  auto workload = apps::make_workload("gauss", params);
  RunSummary s = machine.run(*workload);
  std::string line = core::format_summary(s);
  EXPECT_NE(line.find("oracle["), std::string::npos) << line;
  std::string report = core::detailed_report(cfg, machine.stats(), s);
  EXPECT_NE(report.find("coherence oracle:"), std::string::npos) << report;
}

// The oracle's table spans the shared footprint rounded up to a whole ring
// line, because a ring insert stamps every L2 block of its line. With the
// 128-byte ring lines of the Section 5.3.2 variant, gauss's footprint ends
// mid-line.
TEST(Oracle, WideRingLinesRunClean) {
  MachineConfig cfg = config_for(SystemKind::kNetCache);
  cfg.nodes = 16;
  cfg.ring.block_bytes = 128;
  cfg.verify = true;
  Machine machine(cfg);
  apps::WorkloadParams params;
  params.scale = 0.1;
  auto workload = apps::make_workload("gauss", params);
  RunSummary s = machine.run(*workload);
  EXPECT_TRUE(s.verified);
  EXPECT_GT(s.oracle.ring_checks, 0u);
  EXPECT_NE(machine.address_space().shared_bytes_allocated() %
                static_cast<std::size_t>(cfg.ring.block_bytes),
            0u);
}

// The acceptance mutant: skip one update broadcast delivery (drop-update
// with recovery off). The oracle must abort the run with a coherence
// violation carrying its shadow-state dump — never a silent wrong result.
TEST(OracleDeath, DroppedUpdateBroadcastIsCaught) {
  for (SystemKind kind : {SystemKind::kLambdaNet, SystemKind::kDmonUpdate}) {
    auto mutant = [kind] {
      MachineConfig cfg = config_for(kind);
      cfg.verify = true;
      cfg.faults.spec = "drop-update:1";
      cfg.faults.recovery = false;
      run_app(cfg, "gauss");
    };
    EXPECT_DEATH(mutant(), "coherence violation") << to_string(kind);
  }
}

TEST(OracleDeath, ViolationReportNamesBlockAndVersions) {
  auto mutant = [] {
    MachineConfig cfg = config_for(SystemKind::kDmonUpdate);
    cfg.verify = true;
    cfg.faults.spec = "drop-update:1";
    cfg.faults.recovery = false;
    run_app(cfg, "gauss");
  };
  // Full report: the violation line carries the shadow state (committed vs
  // observed versions, writer, block) and the oracle's failure context.
  EXPECT_DEATH(mutant(), "coherence violation.*block=0x.*committed=v");
}

}  // namespace
}  // namespace netcache
