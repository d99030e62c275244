// Regenerates the paper's artifacts from one deduplicated sweep: Tables 1-4,
// Figures 5-15, the Section 3.4 / 5.3.2 / 6 ablations, the synthetic sharing
// patterns and the Section 3.5 disk extension.
//
// Each artifact in the registry below is a name, a table, the cells it needs
// (plan) and a fold that turns their summaries into table rows. The driver
// plans every selected artifact, submits each distinct cell once to one
// SweepDriver (cells that resolve to the same machine share a run, keyed like
// the result cache), then folds, prints and writes the tables in registry
// order. Results are keyed by cell, so every table is bit-identical for any
// --jobs, with or without --cache, and under --isolate.
//
//   ./reproduce [ARTIFACT...] [--jobs=N] [--cache=DIR] [--isolate] ...
//
// No ARTIFACT selects all of them. When NETCACHE_BENCH_CSV_DIR is set, each
// table is also written there as <sanitized-title>.csv. A failed or
// unverified cell prints its diagnosis and the run exits 1 before any table
// is folded; SIGINT/SIGTERM stop the sweep with a partial-grid summary and
// exit 128+signal.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/synthetic.hpp"
#include "src/apps/workload.hpp"
#include "src/netdisk/disk_cache.hpp"
#include "src/sweep/flags.hpp"
#include "src/sweep/supervisor.hpp"

using namespace netcache;
using bench::Table;

namespace {

using Summaries = std::vector<const core::RunSummary*>;
using Tweak = std::function<void(MachineConfig&)>;

struct Artifact {
  const char* name;
  const char* title;
  std::vector<std::string> columns;
  /// The cells the table needs, in the order fold() reads them; empty for
  /// the probe tables, which simulate inside their fold.
  std::function<std::vector<sweep::Cell>()> plan;
  /// Sets the table's rows from the summaries of plan()'s cells.
  std::function<void(const Summaries&, Table&)> fold;
};

constexpr SystemKind kSystems[] = {
    SystemKind::kNetCache, SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
    SystemKind::kDmonInvalidate};
constexpr int kChannels[] = {64, 128, 256};  // 16, 32 and 64-KB rings

sweep::Cell cell(const std::string& app, SystemKind system, Tweak tweak = {}) {
  sweep::Cell c;
  c.app = app;
  c.system = system;
  c.tweak = std::move(tweak);
  return c;
}

Tweak ring_channels(int channels) {
  return [channels](MachineConfig& cfg) { cfg.ring.channels = channels; };
}

std::string kb_column(int channels) {
  return std::to_string(channels / 4) + "KB";
}

double run_time(const core::RunSummary* s) {
  return static_cast<double>(s->run_time);
}

/// One NetCache cell per application and ring variant, app-major; the table
/// has one row per application and one column per variant, holding the
/// shared-cache hit rate (Figures 8, 11 and 12).
Artifact hit_rate_by_variant(const char* name, const char* title,
                             std::vector<std::string> columns,
                             std::vector<Tweak> variants) {
  return {name, title, columns,
          [variants] {
            std::vector<sweep::Cell> cells;
            for (const auto& app : apps::workload_names()) {
              for (const Tweak& t : variants) {
                cells.push_back(cell(app, SystemKind::kNetCache, t));
              }
            }
            return cells;
          },
          [columns](const Summaries& s, Table& t) {
            std::size_t i = 0;
            for (const auto& app : apps::workload_names()) {
              for (const auto& col : columns) {
                t.set(app, col, 100.0 * s[i++]->shared_cache_hit_rate);
              }
            }
          }};
}

/// Figures 13-15: Gauss (high reuse) and Radix (low reuse) on the four
/// systems at three values of one machine parameter. Rows are system-major
/// (gauss-NetCache, radix-NetCache, gauss-LambdaNet, ...).
Artifact sensitivity(const char* name, const char* title, const char* unit,
                     std::vector<int> values,
                     std::function<void(MachineConfig&, int)> apply) {
  static const char* const kApps[] = {"gauss", "radix"};
  std::vector<std::string> columns;
  for (int v : values) columns.push_back(std::to_string(v) + unit);
  return {name, title, columns,
          [values, apply] {
            std::vector<sweep::Cell> cells;
            for (SystemKind k : kSystems) {
              for (const char* app : kApps) {
                for (int v : values) {
                  cells.push_back(cell(app, k, [apply, v](MachineConfig& cfg) {
                    apply(cfg, v);
                  }));
                }
              }
            }
            return cells;
          },
          [columns](const Summaries& s, Table& t) {
            std::size_t i = 0;
            for (SystemKind k : kSystems) {
              for (const char* app : kApps) {
                const std::string row = std::string(app) + "-" + to_string(k);
                for (const auto& col : columns) {
                  t.set(row, col, run_time(s[i++]));
                }
              }
            }
          }};
}

/// Figures 9 and 10: per application, the no-shared-cache machine followed
/// by the 16/32/64-KB rings.
std::vector<sweep::Cell> ring_size_cells() {
  std::vector<sweep::Cell> cells;
  for (const auto& app : apps::workload_names()) {
    cells.push_back(cell(app, SystemKind::kNetCacheNoRing));
    for (int ch : kChannels) {
      cells.push_back(cell(app, SystemKind::kNetCache, ring_channels(ch)));
    }
  }
  return cells;
}

/// Figures 9 and 10's fold: `metric` of each ring size over the
/// no-shared-cache machine's.
std::function<void(const Summaries&, Table&)> normalized_to_no_ring(
    double (*metric)(const core::RunSummary*)) {
  return [metric](const Summaries& s, Table& t) {
    std::size_t i = 0;
    for (const auto& app : apps::workload_names()) {
      const core::RunSummary* base = s[i++];
      t.set(app, "0KB", 1.0);
      for (int ch : kChannels) {
        t.set(app, kb_column(ch), metric(s[i++]) / metric(base));
      }
    }
  };
}

// Section 3.5 extension: one fiber length's disk-cache volume under a skewed
// I/O workload (80% of reads to a hot fifth of the volume).
sim::Task<void> disk_reader(netdisk::DiskCachedVolume& volume,
                            sim::Engine& engine, int requests, NodeId n) {
  Rng local(1000 + static_cast<std::uint64_t>(n));
  constexpr std::int64_t kVolumeBlocks = 16384;
  constexpr std::int64_t kHotBlocks = kVolumeBlocks / 5;
  for (int r = 0; r < requests; ++r) {
    std::int64_t b =
        (local.next_double() < 0.8)
            ? static_cast<std::int64_t>(
                  local.next_below(static_cast<std::uint32_t>(kHotBlocks)))
            : static_cast<std::int64_t>(local.next_below(
                  static_cast<std::uint32_t>(kVolumeBlocks)));
    co_await volume.read(n, static_cast<Addr>(b) * 4096);
    co_await engine.delay(200);
  }
}

void fold_disk_cache(const Summaries&, Table& t) {
  for (double meters : {100.0, 1000.0, 10000.0, 50000.0, 200000.0}) {
    sim::Engine engine;
    Rng rng(99);
    netdisk::DiskConfig disk;
    auto geometry = netdisk::DiskRingGeometry::from_fiber(
        meters, 10.0, disk.block_bytes, 32);
    netdisk::DiskCachedVolume volume(engine, disk, geometry, 16, rng);
    for (NodeId n = 0; n < 16; ++n) {
      engine.spawn(disk_reader(volume, engine, 600, n));
    }
    engine.run();
    const std::string row = std::to_string(static_cast<int>(meters)) + "m";
    t.set(row, "cacheKB", static_cast<double>(volume.cache_bytes()) / 1024.0);
    t.set(row, "hit%", 100.0 * volume.hit_rate());
    t.set(row, "meanLatency", volume.mean_latency());
  }
}

const std::vector<Artifact>& registry() {
  static const std::vector<Artifact> artifacts = {
      // Tables 1-2: contention-free read latencies vs the paper's breakdown
      // totals (NetCache hit 46 / miss 119; LambdaNet 111; DMON 135).
      {"table1_2", "Tables 1-2: read latencies (pcycles)",
       {"measured", "paper"}, nullptr,
       [](const Summaries&, Table& t) {
         t.set("NC-hit", "measured", bench::mean_ring_hit_latency());
         t.set("NC-hit", "paper", 46.0);
         const double paper[] = {119.0, 111.0, 135.0, 135.0};
         for (int i = 0; i < 4; ++i) {
           const char* row = to_string(kSystems[i]);
           t.set(row, "measured", bench::mean_cold_read_latency(kSystems[i]));
           t.set(row, "paper", paper[i]);
         }
       }},
      // Table 3: coherence-transaction latencies (8 dirty words) vs the
      // paper's totals.
      {"table3", "Table 3: coherence transaction latency (pcycles)",
       {"measured", "paper"}, nullptr,
       [](const Summaries&, Table& t) {
         const double paper[] = {41.0, 24.0, 43.0, 37.0};
         for (int i = 0; i < 4; ++i) {
           const char* row = to_string(kSystems[i]);
           t.set(row, "measured", bench::mean_update_latency(kSystems[i]));
           t.set(row, "paper", paper[i]);
         }
       }},
      // Table 4: each application's intensity on the base NetCache machine.
      {"table4", "Table 4: application suite at default (reduced) size",
       {"reads", "writes", "updates", "cycles"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const auto& app : apps::workload_names()) {
           cells.push_back(cell(app, SystemKind::kNetCache));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const auto& app : apps::workload_names()) {
           const core::RunSummary* r = s[i++];
           t.set(app, "reads", static_cast<double>(r->totals.reads));
           t.set(app, "writes", static_cast<double>(r->totals.writes));
           t.set(app, "updates", static_cast<double>(r->totals.updates_sent));
           t.set(app, "cycles", run_time(r));
         }
       }},
      // Figure 5: 16-node NetCache speedups over a single node.
      {"fig5", "Figure 5: NetCache 16-node speedups",
       {"t(1)", "t(16)", "speedup"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const auto& app : apps::workload_names()) {
           sweep::Cell one = cell(app, SystemKind::kNetCache);
           one.nodes = 1;
           cells.push_back(std::move(one));
           cells.push_back(cell(app, SystemKind::kNetCache));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const auto& app : apps::workload_names()) {
           const double t1 = run_time(s[i++]);
           const double t16 = run_time(s[i++]);
           t.set(app, "t(1)", t1);
           t.set(app, "t(16)", t16);
           t.set(app, "speedup", t1 / t16);
         }
       }},
      // Figure 6: the headline comparison, run times normalized to NetCache.
      {"fig6", "Figure 6: run times normalized to NetCache (16 nodes)",
       {"NetCache", "LambdaNet", "DMON-U", "DMON-I"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const auto& app : apps::workload_names()) {
           for (SystemKind k : kSystems) cells.push_back(cell(app, k));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const auto& app : apps::workload_names()) {
           const double base = run_time(s[i]);
           for (SystemKind k : kSystems) {
             t.set(app, to_string(k), run_time(s[i++]) / base);
           }
         }
       }},
      // Figure 7: what the shared cache buys, against the same machine
      // without it.
      {"fig7", "Figure 7: shared-cache effectiveness (percentages)",
       {"RL%ofTotal", "HitRate%", "MissLatRed%", "ReadLatRed%"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const auto& app : apps::workload_names()) {
           cells.push_back(cell(app, SystemKind::kNetCacheNoRing));
           cells.push_back(cell(app, SystemKind::kNetCache));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const auto& app : apps::workload_names()) {
           const core::RunSummary& no_ring = *s[i++];
           const core::RunSummary& with_ring = *s[i++];
           t.set(app, "RL%ofTotal", 100.0 * no_ring.read_latency_fraction);
           t.set(app, "HitRate%", 100.0 * with_ring.shared_cache_hit_rate);
           t.set(app, "MissLatRed%",
                 100.0 * (1.0 - with_ring.avg_l2_miss_latency /
                                    no_ring.avg_l2_miss_latency));
           t.set(app, "ReadLatRed%",
                 100.0 * (1.0 - with_ring.avg_read_latency /
                                    no_ring.avg_read_latency));
         }
       }},
      // Figure 8: hit rates of 16, 32 and 64-KB shared caches.
      hit_rate_by_variant(
          "fig8", "Figure 8: hit rate (%) vs shared cache size",
          {kb_column(64), kb_column(128), kb_column(256)},
          {ring_channels(64), ring_channels(128), ring_channels(256)}),
      // Figures 9 and 10: read latency and run time by shared-cache size.
      {"fig9", "Figure 9: read latency normalized to no shared cache",
       {"0KB", "16KB", "32KB", "64KB"}, ring_size_cells,
       normalized_to_no_ring(
           [](const core::RunSummary* r) { return r->avg_read_latency; })},
      {"fig10", "Figure 10: run time normalized to no shared cache",
       {"0KB", "16KB", "32KB", "64KB"}, ring_size_cells,
       normalized_to_no_ring(run_time)},
      // Figure 11: fully-associative vs direct-mapped cache channels.
      hit_rate_by_variant(
          "fig11", "Figure 11: hit rate (%) by channel associativity",
          {to_string(RingAssociativity::kFullyAssociative),
           to_string(RingAssociativity::kDirectMapped)},
          {[](MachineConfig& cfg) {
             cfg.ring.associativity = RingAssociativity::kFullyAssociative;
           },
           [](MachineConfig& cfg) {
             cfg.ring.associativity = RingAssociativity::kDirectMapped;
           }}),
      // Figure 12: replacement policies (the paper's result: Random wins).
      hit_rate_by_variant(
          "fig12", "Figure 12: hit rate (%) by replacement policy",
          {to_string(RingReplacement::kRandom),
           to_string(RingReplacement::kLfu), to_string(RingReplacement::kLru),
           to_string(RingReplacement::kFifo)},
          {[](MachineConfig& cfg) {
             cfg.ring.replacement = RingReplacement::kRandom;
           },
           [](MachineConfig& cfg) {
             cfg.ring.replacement = RingReplacement::kLfu;
           },
           [](MachineConfig& cfg) {
             cfg.ring.replacement = RingReplacement::kLru;
           },
           [](MachineConfig& cfg) {
             cfg.ring.replacement = RingReplacement::kFifo;
           }}),
      sensitivity("fig13", "Figure 13: run time (cycles) vs L2 size", "KB",
                  {16, 32, 64},
                  [](MachineConfig& cfg, int kb) {
                    cfg.l2.size_bytes = kb * 1024;
                  }),
      // The ring length scales inversely with the rate, keeping the shared
      // cache's capacity constant.
      sensitivity("fig14",
                  "Figure 14: run time (cycles) vs transmission rate", "Gbps",
                  {5, 10, 20},
                  [](MachineConfig& cfg, int gbps) {
                    cfg.gbit_per_s = static_cast<double>(gbps);
                  }),
      // The paper's "NetCache's advantage grows with the memory gap" result.
      sensitivity("fig15",
                  "Figure 15: run time (cycles) vs memory read latency", "pc",
                  {44, 76, 108},
                  [](MachineConfig& cfg, int pc) {
                    cfg.mem_block_read_cycles = pc;
                  }),
      // Section 5.3.2: 128-byte ring lines at constant 32-KB capacity halve
      // the line count (the paper: up to 33% slower for Em3d, 12% for CG).
      {"blocksize",
       "Section 5.3.2: shared cache line 64B vs 128B (constant 32KB)",
       {"64B", "128B", "penalty%", "hit64%", "hit128%"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const char* app : {"em3d", "cg", "mg", "ocean", "radix"}) {
           cells.push_back(cell(app, SystemKind::kNetCache));
           cells.push_back(
               cell(app, SystemKind::kNetCache, [](MachineConfig& cfg) {
                 cfg.ring.block_bytes = 128;
                 cfg.ring.blocks_per_channel = 2;  // same 32-KB capacity
               }));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const char* app : {"em3d", "cg", "mg", "ocean", "radix"}) {
           const core::RunSummary* base = s[i++];
           const core::RunSummary* wide = s[i++];
           t.set(app, "64B", run_time(base));
           t.set(app, "128B", run_time(wide));
           t.set(app, "penalty%",
                 100.0 * (run_time(wide) / run_time(base) - 1.0));
           t.set(app, "hit64%", 100.0 * base->shared_cache_hit_rate);
           t.set(app, "hit128%", 100.0 * wide->shared_cache_hit_rate);
         }
       }},
      // Section 6: sequential next-block prefetching, which NetCache would
      // need extra tunable receivers for. Rows are system-major.
      {"prefetch",
       "Extension: sequential prefetch (run-time change and accuracy)",
       {"base", "prefetch", "gain%", "useful%"},
       [] {
         std::vector<sweep::Cell> cells;
         for (SystemKind k : {SystemKind::kNetCache, SystemKind::kLambdaNet}) {
           for (const char* app : {"fft", "sor", "em3d", "lu"}) {
             cells.push_back(cell(app, k));
             cells.push_back(cell(app, k, [](MachineConfig& cfg) {
               cfg.sequential_prefetch = true;
             }));
           }
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (SystemKind k : {SystemKind::kNetCache, SystemKind::kLambdaNet}) {
           for (const char* app : {"fft", "sor", "em3d", "lu"}) {
             const core::RunSummary* base = s[i++];
             const core::RunSummary* pf = s[i++];
             const std::string row = std::string(app) + "-" + to_string(k);
             const auto issued = pf->totals.prefetches_issued;
             t.set(row, "base", run_time(base));
             t.set(row, "prefetch", run_time(pf));
             t.set(row, "gain%", 100.0 * (run_time(base) / run_time(pf) - 1.0));
             t.set(row, "useful%",
                   issued == 0
                       ? 0.0
                       : 100.0 *
                             static_cast<double>(pf->totals.prefetches_useful) /
                             static_cast<double>(issued));
           }
         }
       }},
      // Section 3.4: reads started on both subnetworks vs on the ring only,
      // which adds about half a round trip of miss detection.
      {"read_start",
       "Ablation: dual-start vs ring-only reads (run time, cycles)",
       {"dual", "ring-only", "penalty%"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const char* app :
              {"em3d", "fft", "ocean", "radix", "raytrace", "mg"}) {
           cells.push_back(cell(app, SystemKind::kNetCache));
           cells.push_back(
               cell(app, SystemKind::kNetCache, [](MachineConfig& cfg) {
                 cfg.reads_start_on_star = false;
               }));
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const char* app :
              {"em3d", "fft", "ocean", "radix", "raytrace", "mg"}) {
           const double dual = run_time(s[i++]);
           const double ring_only = run_time(s[i++]);
           t.set(app, "dual", dual);
           t.set(app, "ring-only", ring_only);
           t.set(app, "penalty%", 100.0 * (ring_only / dual - 1.0));
         }
       }},
      // Synthetic sharing patterns isolate what each interconnect is good
      // at: hot shared sets favour NetCache, no sharing ties everyone,
      // producer-consumer favours the update protocols.
      {"sharing", "Synthetic sharing patterns (run time, cycles)",
       {"NetCache", "LambdaNet", "DMON-U", "DMON-I"},
       [] {
         std::vector<sweep::Cell> cells;
         for (const char* pattern : {"uniform", "hot", "prodcons", "stream"}) {
           for (SystemKind k : kSystems) {
             sweep::Cell c = cell(pattern, k);
             c.make_workload = [p = std::string(pattern)] {
               apps::SyntheticSpec spec;
               spec.pattern = p;
               return apps::make_synthetic(spec);
             };
             cells.push_back(std::move(c));
           }
         }
         return cells;
       },
       [](const Summaries& s, Table& t) {
         std::size_t i = 0;
         for (const char* pattern : {"uniform", "hot", "prodcons", "stream"}) {
           for (SystemKind k : kSystems) {
             t.set(pattern, to_string(k), run_time(s[i++]));
           }
         }
       }},
      // Section 3.5: the ring as a disk block cache. Capacity (and hit rate)
      // grow linearly with fiber length, and the disk's milliseconds dwarf
      // the ring's microseconds, so longer fiber wins.
      {"disk_cache", "Extension: optical-ring disk cache vs fiber length",
       {"cacheKB", "hit%", "meanLatency"}, nullptr, fold_disk_cache},
  };
  return artifacts;
}

void usage(const std::vector<Artifact>& artifacts) {
  std::fprintf(stderr,
               "usage: reproduce [ARTIFACT...] [flags]\n"
               "  artifacts (default: all):");
  for (const Artifact& a : artifacts) std::fprintf(stderr, " %s", a.name);
  std::fprintf(stderr, "\n%s", sweep::sweep_flags_help());
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Artifact>& artifacts = registry();
  const std::size_t n = artifacts.size();
  std::vector<bool> selected(n, false);
  bool any_selected = false;
  sweep::SweepFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (sweep::parse_sweep_flag(argv[i], &flags, &error)) {
      case sweep::FlagParse::kConsumed:
        continue;
      case sweep::FlagParse::kBadValue:
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      case sweep::FlagParse::kNotSweepFlag:
        break;
    }
    std::size_t a = 0;
    while (a < n && std::string(artifacts[a].name) != argv[i]) ++a;
    if (a == n) {
      std::fprintf(stderr, "reproduce: unknown artifact or flag '%s'\n",
                   argv[i]);
      usage(artifacts);
      return 1;
    }
    selected[a] = true;
    any_selected = true;
  }
  if (!any_selected) selected.assign(n, true);
  sweep::apply_cache_flags(flags);

  // Artifact a reads cells [begin[a], begin[a + 1]) of the plan.
  std::vector<sweep::Cell> planned;
  std::vector<std::size_t> begin(n + 1, 0);
  for (std::size_t a = 0; a < n; ++a) {
    begin[a] = planned.size();
    if (!selected[a] || !artifacts[a].plan) continue;
    for (sweep::Cell& c : artifacts[a].plan()) planned.push_back(std::move(c));
  }
  begin[n] = planned.size();

  sweep::SweepDriver driver(flags.jobs);
  driver.set_isolation(flags.isolation);
  const std::vector<std::size_t> index =
      bench::submit_distinct(planned, driver);

  const auto t0 = std::chrono::steady_clock::now();
  sweep::install_stop_handlers();
  const auto& results = driver.run();
  sweep::remove_stop_handlers();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  const bool isolated = flags.isolation.enabled;
  bool failed = false;
  std::size_t completed = 0;
  std::uint64_t events = 0;
  double engine_seconds = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      // Under isolation a failed cell is quarantined, not fatal: print its
      // diagnosis (incl. harvested forensics) and let the grid report.
      std::fprintf(stderr, "%s: cell %s failed: %s\n",
                   isolated ? "FAILED" : "FATAL",
                   driver.cell(i).label().c_str(), results[i].error.c_str());
      failed = true;
    } else if (!results[i].summary.verified) {
      std::fprintf(stderr, "%s: cell %s failed verification\n",
                   isolated ? "FAILED" : "FATAL",
                   driver.cell(i).label().c_str());
      failed = true;
    } else {
      ++completed;
      events += results[i].summary.events;
      engine_seconds += results[i].summary.wall_seconds;
    }
  }
  std::printf("sweep: %zu cells (%zu planned) on %d worker(s) in %.2f s\n",
              driver.size(), planned.size(), driver.jobs(), secs);
  const std::string cache_line = sweep::format_cache_stats();
  if (!cache_line.empty()) std::printf("%s", cache_line.c_str());
  if (sweep::stop_requested()) {
    std::fprintf(stderr,
                 "sweep interrupted by signal %d — %zu/%zu cells completed "
                 "(completed results are cached; re-run to resume)\n",
                 sweep::stop_signal(), completed, results.size());
    return 128 + sweep::stop_signal();
  }
  if (failed) {
    if (isolated) {
      std::fprintf(stderr,
                   "sweep: %zu/%zu cells completed; failed cells were "
                   "quarantined (completed results are cached; re-run "
                   "re-executes only the failures). No table is printed.\n",
                   completed, results.size());
    }
    return 1;
  }

  const char* csv_dir = std::getenv("NETCACHE_BENCH_CSV_DIR");
  for (std::size_t a = 0; a < n; ++a) {
    if (!selected[a]) continue;
    Summaries summaries;
    for (std::size_t j = begin[a]; j < begin[a + 1]; ++j) {
      summaries.push_back(&results[index[j]].summary);
    }
    Table table(artifacts[a].title, artifacts[a].columns);
    artifacts[a].fold(summaries, table);
    table.print();
    if (csv_dir != nullptr) table.write_csv_to(csv_dir);
  }
  if (engine_seconds > 0) {
    std::printf("\nengine: %llu events in %.3f s  (%.3g events/s)\n",
                static_cast<unsigned long long>(events), engine_seconds,
                static_cast<double>(events) / engine_seconds);
  }
  return 0;
}
