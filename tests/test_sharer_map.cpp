// Sharer-map tests (src/core/sharer_map.hpp, DESIGN.md section 16): the
// O(sharers) snoop-delivery fast path must be invisible — results stay
// bit-identical to the sharer_tracking = false full scan across systems,
// apps and fault injection — while the SnoopStats counters account for every
// probe taken or avoided. Verified runs take the same fast path, audit the
// map at every delivery, and keep the oracle's delivery counters equal to
// the full scan's.
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

/// The whole serialized summary minus wall-clock (host observability, the
/// one field the determinism contract excepts). SnoopStats are deliberately
/// not serialized, so this comparison is exactly the bit-identity contract.
std::string canonical(RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

struct RunOpts {
  SystemKind system = SystemKind::kNetCache;
  int nodes = 16;
  bool tracking = true;
  bool verify = false;
  double scale = 0.1;
  std::string faults;
};

RunSummary run_app(const std::string& app, const RunOpts& opts) {
  MachineConfig cfg;
  cfg.nodes = opts.nodes;
  cfg.system = opts.system;
  cfg.sharer_tracking = opts.tracking;
  cfg.verify = opts.verify;
  if (!opts.faults.empty()) cfg.faults.spec = opts.faults;
  Machine machine(cfg);
  apps::WorkloadParams params;
  params.scale = opts.scale;
  auto workload = apps::make_workload(app, params);
  return machine.run(*workload);
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

// --- Bit-identity grid ----------------------------------------------------

// The headline contract: turning the sharer map off must not change one
// byte of the serialized summary, for every shipped protocol stack.
TEST(SharerIdentity, EverySystemTrackedVsUntracked) {
  for (SystemKind system : kAllSystems) {
    RunOpts on;
    on.system = system;
    RunOpts off = on;
    off.tracking = false;
    RunSummary tracked = run_app("fft", on);
    RunSummary scanned = run_app("fft", off);
    EXPECT_EQ(canonical(tracked), canonical(scanned))
        << tracked.system << " diverged with sharer tracking on";
  }
}

TEST(SharerIdentity, UpdateHeavyApps) {
  // gauss broadcasts heavily, water is finer-grained.
  for (const char* app : {"gauss", "water", "cg"}) {
    RunOpts on;
    RunOpts off = on;
    off.tracking = false;
    RunSummary tracked = run_app(app, on);
    RunSummary scanned = run_app(app, off);
    EXPECT_EQ(canonical(tracked), canonical(scanned)) << app << " diverged";
  }
}

// Fault victims are picked from the snapshot on the fast path and from the
// full scan otherwise; the injected faults (and their recovery traffic)
// must land on the same victims at the same cycles either way.
TEST(SharerIdentity, FaultVictimSelectionMatchesFullScan) {
  struct Case {
    SystemKind system;
    const char* spec;
  };
  const Case cases[] = {
      {SystemKind::kNetCache, "drop-update:2"},
      {SystemKind::kLambdaNet, "drop-update:1,outage:1@300"},
      {SystemKind::kDmonInvalidate, "drop-invalidate:2"},
  };
  for (const Case& c : cases) {
    RunOpts on;
    on.system = c.system;
    on.faults = c.spec;
    RunOpts off = on;
    off.tracking = false;
    RunSummary tracked = run_app("gauss", on);
    RunSummary scanned = run_app("gauss", off);
    EXPECT_GT(tracked.faults.injected, 0u) << c.spec;
    EXPECT_EQ(canonical(tracked), canonical(scanned))
        << tracked.system << " faulted run (" << c.spec << ") diverged";
  }
}

// L1 blocks are narrower than L2 blocks: the hook must track L2 residency
// only, and the L1-split invalidation path (invalidate_l1_block on an L2
// eviction) must not desynchronize the map.
TEST(SharerIdentity, SplitL1BlocksStayIdentical) {
  for (SystemKind system :
       {SystemKind::kNetCache, SystemKind::kDmonInvalidate}) {
    MachineConfig cfg_on;
    cfg_on.nodes = 16;
    cfg_on.system = system;
    cfg_on.l2.size_bytes = 4096;  // force evictions (and L1-split drops)
    MachineConfig cfg_off = cfg_on;
    cfg_off.sharer_tracking = false;
    apps::WorkloadParams params;
    params.scale = 0.1;
    Machine m_on(cfg_on);
    auto w1 = apps::make_workload("gauss", params);
    RunSummary tracked = m_on.run(*w1);
    Machine m_off(cfg_off);
    auto w2 = apps::make_workload("gauss", params);
    RunSummary scanned = m_off.run(*w2);
    EXPECT_GT(tracked.snoop.deliveries, 0u);
    EXPECT_EQ(canonical(tracked), canonical(scanned))
        << tracked.system << " diverged with a small (evicting) L2";
  }
}

// --- NETCACHE_VERIFY exactness audit --------------------------------------

// Verified runs take the O(sharers) fast path and audit the map (and the
// oracle's presence bits) against actual L2 contents at every delivery; a
// desynchronized map would abort via NC_ASSERT, so a passing verified run is
// the proof.
TEST(SharerAudit, VerifiedRunsAuditEveryDelivery) {
  struct Case {
    SystemKind system;
    int nodes;
  };
  // DMON-I stays at the test_verify matrix shape (4 nodes): its oracle
  // tolerates I-SPEED's stale-sample race only there.
  const Case cases[] = {{SystemKind::kNetCache, 16},
                        {SystemKind::kLambdaNet, 16},
                        {SystemKind::kDmonInvalidate, 4}};
  for (const Case& c : cases) {
    RunOpts opts;
    opts.system = c.system;
    opts.nodes = c.nodes;
    opts.verify = true;
    opts.scale = 0.2;
    RunSummary s = run_app("gauss", opts);
    EXPECT_TRUE(s.verified) << s.system;
    EXPECT_GT(s.snoop.deliveries, 0u) << s.system;
    // The fast path skips non-sharers on verified runs too.
    EXPECT_GT(s.snoop.probes_avoided, 0u) << s.system;
    EXPECT_EQ(s.snoop.probes + s.snoop.probes_avoided,
              s.snoop.deliveries * static_cast<std::uint64_t>(c.nodes - 1))
        << s.system;
  }
}

// Skipped non-sharers still count: with faults off, every delivery hooks
// the oracle for all nodes - 1 peers, exactly as the full scan did, so the
// serialized OracleStats do not depend on which path delivered.
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
      opts.verify = true;
      opts.scale = 0.2;
      RunSummary s = run_app(app, opts);
      ASSERT_GT(s.snoop.probes_avoided, 0u) << app << " " << s.system;
      const std::uint64_t peers =
          s.snoop.deliveries * static_cast<std::uint64_t>(c.nodes - 1);
      if (c.system == SystemKind::kDmonInvalidate) {
        EXPECT_EQ(s.oracle.invalidations_delivered, peers) << app;
        EXPECT_EQ(s.oracle.updates_delivered, 0u) << app;
      } else {
        EXPECT_EQ(s.oracle.updates_delivered, peers)
            << app << " " << s.system << " nodes=" << c.nodes;
        EXPECT_EQ(s.oracle.invalidations_delivered, 0u)
            << app << " " << s.system;
      }
    }
  }
}

TEST(SharerAudit, VerifiedFaultedRunsAuditUnderRecovery) {
  RunOpts opts;
  opts.verify = true;
  opts.nodes = 4;
  opts.scale = 0.2;
  opts.faults = "drop-update:1,corrupt-update:1";
  RunSummary s = run_app("gauss", opts);
  EXPECT_TRUE(s.verified);
  EXPECT_GT(s.faults.injected, 0u);
}

// --- Counters -------------------------------------------------------------

// Every delivery accounts for all nodes-1 peers, split between probes taken
// and probes avoided — on either path.
TEST(SnoopCounters, ProbesPlusAvoidedCoverEveryPeer) {
  for (SystemKind system : kAllSystems) {
    for (bool tracking : {true, false}) {
      RunOpts opts;
      opts.system = system;
      opts.tracking = tracking;
      RunSummary s = run_app("gauss", opts);
      EXPECT_GT(s.snoop.deliveries, 0u) << s.system;
      EXPECT_EQ(
          s.snoop.probes + s.snoop.probes_avoided,
          s.snoop.deliveries * static_cast<std::uint64_t>(opts.nodes - 1))
          << s.system << " tracking=" << tracking;
      if (tracking) {
        // Table 4 apps never share every block with all 15 peers, so the
        // map must be paying for itself.
        EXPECT_GT(s.snoop.probes_avoided, 0u) << s.system;
        EXPECT_GT(s.snoop.peak_blocks, 0u) << s.system;
      } else {
        EXPECT_EQ(s.snoop.probes_avoided, 0u) << s.system;
        EXPECT_EQ(s.snoop.peak_blocks, 0u) << s.system;
      }
    }
  }
}

TEST(SnoopCounters, FormatSnoopReportsOnlyWhenDeliveriesExist) {
  RunOpts opts;
  RunSummary s = run_app("gauss", opts);
  ASSERT_GT(s.snoop.deliveries, 0u);
  const std::string line = core::format_snoop(s);
  EXPECT_NE(line.find("snoop:"), std::string::npos) << line;
  EXPECT_NE(line.find("avoided="), std::string::npos) << line;
  RunSummary none;
  EXPECT_EQ(core::format_snoop(none), "");
}

// SnoopStats must stay out of the serialized summary: tracked and untracked
// counters differ wildly, and serializing them would break both the
// bit-identity contract and every existing result-cache record.
TEST(SnoopCounters, ExcludedFromSerialization) {
  RunOpts opts;
  RunSummary s = run_app("gauss", opts);
  ASSERT_GT(s.snoop.probes_avoided, 0u);
  const std::string blob = core::serialize_summary(s);
  EXPECT_EQ(blob.find("snoop"), std::string::npos);
  EXPECT_EQ(blob.find("probes"), std::string::npos);
}

}  // namespace
}  // namespace netcache
