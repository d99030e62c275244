// Sharer-map tests (src/core/sharer_map.hpp, DESIGN.md section 16). Snoop
// delivery visits only the sharers the map lists, so the map must be an
// exact mirror of L2 residency. The grids below run verified: at every
// delivery verify::audit_sharer_map compares the map with every node's L2
// and aborts on the first mismatch, so a passing run proves each skip it
// took. The SnoopStats counters must account for every peer, and the
// oracle's delivery counters must count the skipped peers too.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/cache/cache.hpp"
#include "src/common/config.hpp"
#include "src/core/machine.hpp"
#include "src/core/run_summary.hpp"
#include "src/core/sharer_map.hpp"

namespace netcache {
namespace {

using core::Machine;
using core::RunSummary;
using core::SharerMap;

constexpr SystemKind kAllSystems[] = {
    SystemKind::kNetCache, SystemKind::kNetCacheNoRing, SystemKind::kLambdaNet,
    SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate};

/// Grid width per system. Verified DMON-I runs at 4 nodes: at 16, gauss
/// still hits the open I-SPEED ownership race, which test_verify keeps
/// visible under NETCACHE_VERIFY=1.
int grid_nodes(SystemKind system) {
  return system == SystemKind::kDmonInvalidate ? 4 : 16;
}

struct RunOpts {
  SystemKind system = SystemKind::kNetCache;
  int nodes = 16;
  double scale = 0.1;
  int l2_bytes = 0;  // 0 keeps the default L2
  std::string faults;
};

/// Runs `app` with the coherence oracle on, so the sharer audit checks
/// every delivery, and checks what every verified case must show: the run
/// passed the oracle and its functional check, the map skipped peers, and
/// each delivery accounts for all nodes - 1 peers, probed or avoided.
/// Without faults every peer also reaches the oracle's delivery counter,
/// skipped or not.
RunSummary run_audited(const std::string& app, const RunOpts& opts) {
  MachineConfig cfg;
  cfg.nodes = opts.nodes;
  cfg.system = opts.system;
  cfg.verify = true;
  if (opts.l2_bytes > 0) cfg.l2.size_bytes = opts.l2_bytes;
  cfg.faults.spec = opts.faults;
  Machine machine(cfg);
  apps::WorkloadParams params;
  params.scale = opts.scale;
  auto workload = apps::make_workload(app, params);
  const RunSummary s = machine.run(*workload);

  const std::string what = app + " on " + to_string(opts.system) + " at " +
                           std::to_string(opts.nodes) + " nodes " +
                           opts.faults;
  EXPECT_TRUE(s.verified) << what;
  EXPECT_TRUE(s.verify_enabled) << what;
  EXPECT_GT(s.snoop.deliveries, 0u) << what;
  EXPECT_GT(s.snoop.probes_avoided, 0u) << what;
  EXPECT_GT(s.snoop.peak_blocks, 0u) << what;
  const std::uint64_t peers =
      s.snoop.deliveries * static_cast<std::uint64_t>(opts.nodes - 1);
  EXPECT_EQ(s.snoop.probes + s.snoop.probes_avoided, peers) << what;
  if (opts.faults.empty()) {
    const bool invalidating = opts.system == SystemKind::kDmonInvalidate;
    EXPECT_EQ(s.oracle.invalidations_delivered, invalidating ? peers : 0u)
        << what;
    EXPECT_EQ(s.oracle.updates_delivered, invalidating ? 0u : peers) << what;
  }
  return s;
}

// --- SharerMap unit behavior ---------------------------------------------

TEST(SharerMapUnit, SnapshotListsSharersInAscendingNodeOrder) {
  // 70 nodes forces a two-word bitmap.
  SharerMap map(70, 64);
  EXPECT_EQ(map.nodes(), 70);
  const Addr block = 0x1000;
  for (NodeId n : {69, 0, 64, 3, 17, 35}) {
    map.set_resident(block, n, true);
  }
  const std::vector<NodeId> want = {0, 3, 17, 35, 64, 69};
  EXPECT_EQ(map.snapshot(block), want);
  for (NodeId n : want) EXPECT_TRUE(map.contains(block, n));
  EXPECT_FALSE(map.contains(block, 1));
  EXPECT_FALSE(map.contains(block, 68));
}

TEST(SharerMapUnit, PeakCountsBlocksThatHaveSharers) {
  SharerMap map(8, 64);
  const Addr a = 0x40;
  const Addr b = 0x80;
  map.set_resident(a, 2, true);
  map.set_resident(a, 3, true);
  map.set_resident(b, 2, true);
  EXPECT_EQ(map.peak_blocks(), 2u);
  map.set_resident(a, 2, false);
  EXPECT_TRUE(map.contains(a, 3));
  map.set_resident(a, 3, false);
  EXPECT_TRUE(map.snapshot(a).empty());
  // Block a has no sharers left, so a third block does not raise the peak.
  map.set_resident(0xc0, 3, true);
  EXPECT_EQ(map.peak_blocks(), 2u);
  EXPECT_TRUE(map.contains(b, 2));
}

TEST(SharerMapUnit, RedundantTransitionsAreIdempotent) {
  SharerMap map(4, 64);
  const Addr block = 0x200;
  map.set_resident(block, 1, true);
  map.set_resident(block, 1, true);  // refresh: still one sharer
  EXPECT_EQ(map.snapshot(block).size(), 1u);
  map.set_resident(block, 2, false);  // clearing an absent node is a no-op
  EXPECT_TRUE(map.contains(block, 1));
  map.set_resident(block, 1, false);
  map.set_resident(block, 1, false);  // double-clear on an empty entry
  EXPECT_TRUE(map.snapshot(block).empty());
}

TEST(SharerMapUnit, ResidentMarksPastTheEndGrowTheTableReadsDoNot) {
  // The table is dense from address 0. A resident mark past its end grows it
  // by doubling; reads (and clears) past the end see no sharers and leave
  // it as it is.
  SharerMap map(256, 64);
  const Addr far = Addr{4} << 20;  // 4 MiB into the shared space
  EXPECT_FALSE(map.contains(far, 7));
  EXPECT_TRUE(map.snapshot(far).empty());
  EXPECT_EQ(map.table_blocks(), 0u);

  map.set_resident(0x40, 3, true);
  const std::size_t small = map.table_blocks();
  EXPECT_GT(small, 1u);
  EXPECT_LT(small * 64, far);
  EXPECT_FALSE(map.contains(far, 7));
  EXPECT_TRUE(map.snapshot(far).empty());
  map.set_resident(far, 7, false);
  EXPECT_EQ(map.table_blocks(), small);

  map.set_resident(far, 7, true);
  map.set_resident(far, 255, true);
  EXPECT_GT(map.table_blocks() * 64, far);
  EXPECT_TRUE(std::has_single_bit(map.table_blocks()));
  EXPECT_EQ(map.snapshot(far), (std::vector<NodeId>{7, 255}));
  EXPECT_TRUE(map.contains(0x40, 3));  // growing kept the existing rows
  EXPECT_EQ(map.peak_blocks(), 2u);

  const Addr farther = far * 4;  // still past the grown end
  EXPECT_FALSE(map.contains(farther, 7));
  EXPECT_TRUE(map.snapshot(farther).empty());
  EXPECT_LT(map.table_blocks() * 64, farther);
}

// --- Cache residency hook -------------------------------------------------

struct HookLog {
  std::vector<std::pair<Addr, bool>> events;
  static void fire(void* ctx, Addr base, bool resident) {
    static_cast<HookLog*>(ctx)->events.push_back({base, resident});
  }
};

TEST(ResidencyHook, FiresOnlyAtResidencyChanges) {
  CacheConfig cc;
  cc.size_bytes = 128;  // 2 blocks: one direct-mapped set pair
  cc.block_bytes = 64;
  cc.associativity = 1;
  cache::Cache cache(cc);
  HookLog log;
  cache.set_residency_hook(&HookLog::fire, &log);

  cache.insert(0x000, cache::LineState::kValid, 1);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0], (std::pair<Addr, bool>{0x000, true}));

  // Refresh in place: residency unchanged, nothing fires.
  cache.insert(0x000, cache::LineState::kValid, 2);
  EXPECT_EQ(log.events.size(), 1u);

  // Conflict miss in set 0: eviction (false) then install (true).
  cache.insert(0x080, cache::LineState::kValid, 3);
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[1], (std::pair<Addr, bool>{0x000, false}));
  EXPECT_EQ(log.events[2], (std::pair<Addr, bool>{0x080, true}));

  // Invalidate of a present line fires; of an absent line does not.
  cache.invalidate(0x080);
  cache.invalidate(0x500);
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[3], (std::pair<Addr, bool>{0x080, false}));

  // clear() drops every valid line (one per set here).
  cache.insert(0x000, cache::LineState::kValid, 4);
  cache.insert(0x040, cache::LineState::kValid, 5);
  log.events.clear();
  cache.clear();
  EXPECT_EQ(log.events.size(), 2u);
  for (const auto& [base, resident] : log.events) EXPECT_FALSE(resident);
}

// --- Verified grid -------------------------------------------------------

TEST(SharerAudit, EverySystem) {
  for (SystemKind system : kAllSystems) {
    RunOpts opts;
    opts.system = system;
    opts.nodes = grid_nodes(system);
    run_audited("fft", opts);
  }
}

TEST(SharerAudit, UpdateHeavyApps) {
  // gauss broadcasts heavily, water is finer-grained.
  for (const char* app : {"gauss", "water", "cg"}) run_audited(app, {});
}

// A drop fault's victim is the first sharer besides the writer; the audit
// proves the map named every node that held the block when it was picked.
TEST(SharerAudit, FaultVictimsComeFromTheMap) {
  struct Case {
    SystemKind system;
    int nodes;
    double scale;
    const char* spec;
  };
  const Case cases[] = {
      {SystemKind::kNetCache, 16, 0.1, "drop-update:2"},
      {SystemKind::kLambdaNet, 16, 0.1, "drop-update:1,outage:1@300"},
      {SystemKind::kDmonInvalidate, 4, 0.1, "drop-invalidate:2"},
      {SystemKind::kNetCache, 4, 0.2, "drop-update:1,corrupt-update:1"},
  };
  for (const Case& c : cases) {
    RunOpts opts;
    opts.system = c.system;
    opts.nodes = c.nodes;
    opts.scale = c.scale;
    opts.faults = c.spec;
    EXPECT_GT(run_audited("gauss", opts).faults.injected, 0u) << c.spec;
  }
}

// L1 blocks are narrower than L2 blocks: the hook must track L2 residency
// only, and the L1-split invalidation path (invalidate_l1_block on an L2
// eviction) must not desynchronize the map.
TEST(SharerAudit, SplitL1BlocksUnderEviction) {
  for (SystemKind system :
       {SystemKind::kNetCache, SystemKind::kDmonInvalidate}) {
    RunOpts opts;
    opts.system = system;
    opts.nodes = grid_nodes(system);
    opts.l2_bytes = 4096;  // force evictions (and L1-split drops)
    run_audited("gauss", opts);
  }
}

// 64 nodes fill a whole bitmap word, bit 63 included, and fan each delivery
// out to 63 peers.
TEST(SharerAudit, SixtyFourNodes) {
  for (const char* app : {"gauss", "radix"}) {
    for (SystemKind system : {SystemKind::kNetCache, SystemKind::kLambdaNet,
                              SystemKind::kDmonUpdate}) {
      RunOpts opts;
      opts.system = system;
      opts.nodes = 64;
      run_audited(app, opts);
    }
  }
}

// Skipped non-sharers still count: every delivery hooks the oracle for all
// nodes - 1 peers, so the serialized OracleStats count every peer whether
// or not its L2 held the block.
TEST(SharerAudit, SkippedNonSharersStillCount) {
  struct Case {
    SystemKind system;
    int nodes;
  };
  const Case cases[] = {
      {SystemKind::kNetCache, 4},        {SystemKind::kNetCache, 16},
      {SystemKind::kNetCacheNoRing, 4},  {SystemKind::kNetCacheNoRing, 16},
      {SystemKind::kLambdaNet, 4},       {SystemKind::kLambdaNet, 16},
      {SystemKind::kDmonUpdate, 4},      {SystemKind::kDmonUpdate, 16},
      {SystemKind::kDmonInvalidate, 4}};
  for (const char* app : {"gauss", "radix"}) {
    for (const Case& c : cases) {
      RunOpts opts;
      opts.system = c.system;
      opts.nodes = c.nodes;
      opts.scale = 0.2;
      run_audited(app, opts);
    }
  }
}

// --- Counters -------------------------------------------------------------

// Every delivery accounts for all nodes-1 peers, split between probes taken
// and probes avoided. Table 4 apps never share every block with all peers,
// so the map must be paying for itself.
TEST(SnoopCounters, ProbesPlusAvoidedCoverEveryPeer) {
  for (SystemKind system : kAllSystems) {
    RunOpts opts;
    opts.system = system;
    opts.nodes = grid_nodes(system);
    run_audited("gauss", opts);
  }
}

TEST(SnoopCounters, FormatSnoopReportsOnlyWhenDeliveriesExist) {
  RunSummary s = run_audited("gauss", RunOpts{});
  ASSERT_GT(s.snoop.deliveries, 0u);
  const std::string line = core::format_snoop(s);
  EXPECT_NE(line.find("snoop:"), std::string::npos) << line;
  EXPECT_NE(line.find("avoided="), std::string::npos) << line;
  RunSummary none;
  EXPECT_EQ(core::format_snoop(none), "");
}

// SnoopStats must stay out of the serialized summary: they measure host
// work, not the simulated machine, and serializing them would change every
// existing result-cache record and reference digest.
TEST(SnoopCounters, ExcludedFromSerialization) {
  RunSummary s = run_audited("gauss", RunOpts{});
  ASSERT_GT(s.snoop.probes_avoided, 0u);
  const std::string blob = core::serialize_summary(s);
  EXPECT_EQ(blob.find("snoop"), std::string::npos);
  EXPECT_EQ(blob.find("probes"), std::string::npos);
}

}  // namespace
}  // namespace netcache
