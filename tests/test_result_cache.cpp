// Result cache: a hit must reproduce the stored run bit for bit, every input
// that can change a simulated result must change the key, damaged entries
// must degrade to misses (never errors), concurrent writers must never
// expose a torn entry, and a version-fingerprint change must invalidate
// everything.
#include "src/sweep/result_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/core/run_summary.hpp"
#include "src/sweep/sweep.hpp"

namespace netcache {
namespace {

namespace fs = std::filesystem;

/// Fresh empty cache directory per test, removed on teardown.
class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("netcache-result-cache-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  std::string entry_path(const std::string& key) const {
    return (dir_ / (key + ".ncr")).string();
  }

 private:
  fs::path dir_;
};

sweep::Cell fast_cell() {
  sweep::Cell cell;
  cell.app = "sor";
  cell.nodes = 4;
  cell.scale = 0.15;
  return cell;
}

TEST_F(ResultCacheTest, HitIsBitIdenticalToTheSimulatedRun) {
  sweep::ResultCache cache(dir());
  const sweep::Cell cell = fast_cell();

  sweep::CellResult cold = sweep::run_cell(cell, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(cold.summary.verified);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);

  sweep::CellResult warm = sweep::run_cell(cell, &cache);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Byte-identical, wall_seconds included: the hit reproduces the producing
  // run's summary exactly, not approximately.
  EXPECT_EQ(core::serialize_summary(cold.summary),
            core::serialize_summary(warm.summary));
}

TEST_F(ResultCacheTest, EverySingleFieldChangeChangesTheKey) {
  // The key resolves NETCACHE_VERIFY into the config, so with the oracle
  // forced on (the CI verify job) the base cell is already verified and the
  // "verify" variant below could not differ from it. Key the cells with the
  // variable unset and put it back afterwards.
  const char* forced = std::getenv("NETCACHE_VERIFY");
  const std::string saved = forced != nullptr ? forced : "";
  unsetenv("NETCACHE_VERIFY");
  sweep::ResultCache cache(dir());
  const sweep::Cell base = fast_cell();
  const std::string base_key = cache.key_for(base);
  ASSERT_EQ(base_key.size(), 32u);

  std::vector<std::pair<const char*, sweep::Cell>> variants;
  auto add = [&](const char* what, void (*mutate)(sweep::Cell*)) {
    sweep::Cell c = fast_cell();
    mutate(&c);
    variants.emplace_back(what, std::move(c));
  };
  add("app", [](sweep::Cell* c) { c->app = "fft"; });
  add("system", [](sweep::Cell* c) { c->system = SystemKind::kLambdaNet; });
  add("nodes", [](sweep::Cell* c) { c->nodes = 8; });
  add("scale", [](sweep::Cell* c) { c->scale = 0.16; });
  add("paper_size", [](sweep::Cell* c) { c->paper_size = true; });
  add("limits.max_cycles",
      [](sweep::Cell* c) { c->limits.max_cycles = 12345; });
  add("limits.max_events",
      [](sweep::Cell* c) { c->limits.max_events = 999999; });
  add("limits.max_stalled_events",
      [](sweep::Cell* c) { c->limits.max_stalled_events = 777; });
  add("limits.fail_on_blocked",
      [](sweep::Cell* c) { c->limits.fail_on_blocked = false; });
  // Tweak-driven MachineConfig fields: the key serializes the resolved
  // config, so each of these must land in it.
  add("l2.size_bytes", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.l2.size_bytes = 64 * 1024; };
  });
  add("gbit_per_s", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.gbit_per_s = 20.0; };
  });
  add("mem_block_read_cycles", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.mem_block_read_cycles = 44; };
  });
  add("ring.channels", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.ring.channels = 64; };
  });
  add("ring.replacement", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) {
      cfg.ring.replacement = RingReplacement::kLru;
    };
  });
  add("ring.associativity", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) {
      cfg.ring.associativity = RingAssociativity::kDirectMapped;
    };
  });
  add("sequential_prefetch", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.sequential_prefetch = true; };
  });
  add("reads_start_on_star", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.reads_start_on_star = false; };
  });
  add("seed", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.seed = 7; };
  });
  add("verify", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.verify = true; };
  });
  add("faults.spec", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.faults.spec = "drop-update:1"; };
  });
  add("faults.seed", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.faults.seed = 99; };
  });
  add("faults.recovery", [](sweep::Cell* c) {
    c->tweak = [](MachineConfig& cfg) { cfg.faults.recovery = false; };
  });

  std::set<std::string> keys = {base_key};
  for (const auto& [what, cell] : variants) {
    const std::string key = cache.key_for(cell);
    EXPECT_EQ(key.size(), 32u) << what;
    EXPECT_NE(key, base_key) << "changing " << what
                             << " did not change the key";
    EXPECT_TRUE(keys.insert(key).second)
        << what << " collided with an earlier variant";
  }
  if (forced != nullptr) setenv("NETCACHE_VERIFY", saved.c_str(), 1);
}

// The one deliberate exclusion: sharer_tracking is an execution knob with a
// bit-identity guarantee (test_sharer_map enforces it), so it must NOT be
// part of the key — a cell warmed with tracking on hits with tracking off
// and returns the stored bytes unchanged.
TEST_F(ResultCacheTest, SharerTrackingIsExcludedFromTheKey) {
  sweep::ResultCache cache(dir());

  const sweep::Cell tracked = fast_cell();
  sweep::Cell untracked = fast_cell();
  untracked.tweak = [](MachineConfig& cfg) { cfg.sharer_tracking = false; };

  const std::string key = cache.key_for(tracked);
  ASSERT_EQ(key.size(), 32u);
  EXPECT_EQ(cache.key_for(untracked), key);

  // Warm the cache with the tracked run, then hit with the untracked cell:
  // byte-identical summary, no second simulation.
  sweep::CellResult cold = sweep::run_cell(tracked, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(cold.summary.verified);
  ASSERT_FALSE(cold.from_cache);
  ASSERT_EQ(cache.stats().stores, 1u);

  sweep::CellResult warm = sweep::run_cell(untracked, &cache);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(core::serialize_summary(warm.summary),
            core::serialize_summary(cold.summary));
}

// The key reads NETCACHE_VERIFY the way Machine does: any value but "" or
// "0" keys a plain cell exactly like a verified one.
TEST_F(ResultCacheTest, VerifyEnvironmentKeysLikeTheVerifyField) {
  const char* forced = std::getenv("NETCACHE_VERIFY");
  const std::string saved = forced != nullptr ? forced : "";
  sweep::ResultCache cache(dir());
  const sweep::Cell plain = fast_cell();
  sweep::Cell verified = fast_cell();
  verified.tweak = [](MachineConfig& cfg) { cfg.verify = true; };

  unsetenv("NETCACHE_VERIFY");
  const std::string plain_key = cache.key_for(plain);
  const std::string verified_key = cache.key_for(verified);
  EXPECT_NE(plain_key, verified_key);

  setenv("NETCACHE_VERIFY", "1", 1);
  EXPECT_EQ(cache.key_for(plain), verified_key);
  EXPECT_EQ(cache.key_for(verified), verified_key);
  for (const char* off : {"0", ""}) {
    setenv("NETCACHE_VERIFY", off, 1);
    EXPECT_EQ(cache.key_for(plain), plain_key) << "NETCACHE_VERIFY=" << off;
  }
  if (forced != nullptr) {
    setenv("NETCACHE_VERIFY", saved.c_str(), 1);
  } else {
    unsetenv("NETCACHE_VERIFY");
  }
}

TEST_F(ResultCacheTest, VersionFingerprintChangeInvalidatesEveryEntry) {
  // Two caches over one directory, differing only in the injected version —
  // exactly what any one-line source change does to the real fingerprint.
  sweep::ResultCache old_build(dir(), "fingerprint-before-the-edit");
  sweep::ResultCache new_build(dir(), "fingerprint-after-the-edit");
  const sweep::Cell cell = fast_cell();

  core::RunSummary summary;
  summary.app = "sor";
  summary.run_time = 4242;
  summary.verified = true;
  old_build.store(cell, summary);
  ASSERT_EQ(old_build.stats().stores, 1u);

  core::RunSummary out;
  EXPECT_FALSE(new_build.lookup(cell, &out));
  EXPECT_EQ(new_build.stats().misses, 1u);

  // The old build still hits its own entry: the invalidation is keyed, not
  // a wipe.
  EXPECT_TRUE(old_build.lookup(cell, &out));
  EXPECT_EQ(out.run_time, 4242);
}

TEST_F(ResultCacheTest, CustomWorkloadCellsAreNeverCached) {
  sweep::ResultCache cache(dir());
  sweep::Cell cell = fast_cell();
  cell.make_workload = [] { return std::unique_ptr<apps::Workload>(); };
  EXPECT_FALSE(sweep::ResultCache::cacheable(cell));
  EXPECT_EQ(cache.key_for(cell), "");

  core::RunSummary out;
  EXPECT_FALSE(cache.lookup(cell, &out));
  EXPECT_EQ(cache.stats().skips, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);

  cache.store(cell, core::RunSummary{});
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_TRUE(fs::is_empty(dir()));
}

TEST_F(ResultCacheTest, CorruptedAndTruncatedEntriesAreMissesNotErrors) {
  sweep::ResultCache cache(dir());
  const sweep::Cell cell = fast_cell();
  core::RunSummary summary;
  summary.app = "sor";
  summary.run_time = 1234;
  summary.verified = true;
  cache.store(cell, summary);
  const std::string path = entry_path(cache.key_for(cell));
  ASSERT_TRUE(fs::exists(path));

  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  auto write_entry = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  core::RunSummary out;

  // Flip one payload byte: checksum mismatch.
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x20;
  write_entry(corrupt);
  EXPECT_FALSE(cache.lookup(cell, &out));

  // Drop the tail (torn write without the rename protection).
  write_entry(pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(cache.lookup(cell, &out));

  // Empty file.
  write_entry("");
  EXPECT_FALSE(cache.lookup(cell, &out));

  // Garbage that is not even the right magic.
  write_entry("not a cache entry at all\n");
  EXPECT_FALSE(cache.lookup(cell, &out));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 4u);

  // Restoring the original bytes restores the hit.
  write_entry(pristine);
  EXPECT_TRUE(cache.lookup(cell, &out));
  EXPECT_EQ(out.run_time, 1234);
}

TEST_F(ResultCacheTest, ConcurrentWritersNeverExposeATornEntry) {
  // 8 writers hammering 10 keys — the same-key races a --jobs=8 sweep (or
  // two bench binaries in one nightly) produces. Readers interleave and must
  // only ever see a complete entry or a miss.
  sweep::ResultCache cache(dir());
  constexpr int kThreads = 8;
  constexpr int kCellsPerThread = 10;
  constexpr int kRounds = 25;

  auto cell_for = [](int i) {
    sweep::Cell c = fast_cell();
    const Cycles mem = 44 + 8 * i;
    c.tweak = [mem](MachineConfig& cfg) { cfg.mem_block_read_cycles = mem; };
    return c;
  };
  auto summary_for = [](int i) {
    core::RunSummary s;
    s.app = "sor";
    s.run_time = 1000 + static_cast<Cycles>(i);
    s.events = 77u * static_cast<std::uint64_t>(i + 1);
    s.verified = true;
    return s;
  };

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kCellsPerThread; ++i) {
          cache.store(cell_for(i), summary_for(i));
          core::RunSummary out;
          if (cache.lookup(cell_for((i + t) % kCellsPerThread), &out)) {
            // A torn entry would deserialize into garbage; a visible entry
            // must always be one of the complete stored summaries.
            EXPECT_EQ(out.events,
                      77u * static_cast<std::uint64_t>(out.run_time - 999));
          }
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(cache.stats().store_errors, 0u);

  for (int i = 0; i < kCellsPerThread; ++i) {
    core::RunSummary out;
    ASSERT_TRUE(cache.lookup(cell_for(i), &out)) << "cell " << i;
    EXPECT_EQ(core::serialize_summary(out),
              core::serialize_summary(summary_for(i)));
  }
}

TEST_F(ResultCacheTest, UnwritableDirectoryDegradesToLoggedSkipsMidGrid) {
  // A cache directory that turns unwritable mid-grid (disk full, permissions
  // yanked, NFS remount) must cost only memoization: stores fail and are
  // counted, lookups and the sweep itself keep working.
  sweep::ResultCache cache(dir());
  sweep::Cell first = fast_cell();
  sweep::CellResult cold = sweep::run_cell(first, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cache.stats().stores, 1u);
  ASSERT_EQ(cache.stats().store_errors, 0u);

  // Break the directory out from under the cache. chmod is a no-op for
  // root (CI containers often are), so replace the directory with a regular
  // file — every path under it then fails with ENOTDIR for any euid.
  fs::remove_all(dir());
  { std::ofstream block(dir(), std::ios::binary); }
  ASSERT_TRUE(fs::is_regular_file(dir()));

  sweep::Cell second = fast_cell();
  second.tweak = [](MachineConfig& cfg) { cfg.mem_block_read_cycles = 44; };
  sweep::CellResult survivor = sweep::run_cell(second, &cache);
  EXPECT_TRUE(survivor.ok) << survivor.error;
  EXPECT_FALSE(survivor.from_cache);
  EXPECT_GE(cache.stats().store_errors, 1u);

  // Direct stores keep degrading to counted errors, never exceptions.
  core::RunSummary summary;
  summary.app = "sor";
  summary.verified = true;
  cache.store(first, summary);
  EXPECT_GE(cache.stats().store_errors, 2u);

  // Restore the directory: the cache object recovers without a rebuild.
  fs::remove(dir());
  fs::create_directories(dir());
  sweep::CellResult rewarm = sweep::run_cell(first, &cache);
  ASSERT_TRUE(rewarm.ok) << rewarm.error;
  core::RunSummary out;
  EXPECT_TRUE(cache.lookup(first, &out));
}

TEST_F(ResultCacheTest, ReadOnlyDirectoryCountsStoreErrorsKeepsHits) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores directory write permissions";
  }
  sweep::ResultCache cache(dir());
  const sweep::Cell cell = fast_cell();
  sweep::CellResult cold = sweep::run_cell(cell, &cache);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cache.stats().stores, 1u);

  fs::permissions(dir(), fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);

  // Existing entries still hit (the directory stays readable) ...
  core::RunSummary out;
  EXPECT_TRUE(cache.lookup(cell, &out));

  // ... while new stores degrade to counted errors.
  sweep::Cell other = fast_cell();
  other.tweak = [](MachineConfig& cfg) { cfg.mem_block_read_cycles = 44; };
  sweep::CellResult result = sweep::run_cell(other, &cache);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GE(cache.stats().store_errors, 1u);

  fs::permissions(dir(), fs::perms::owner_all, fs::perm_options::replace);
}

TEST_F(ResultCacheTest, SummarySerializationRoundTripsExactly) {
  core::RunSummary s;
  s.system = "NetCache";
  s.app = "gauss";
  s.nodes = 16;
  s.run_time = 987654321;
  s.verified = true;
  s.shared_cache_hit_rate = 0.1 + 0.2;  // not exactly representable
  s.avg_read_latency = 3.14159265358979;
  s.events = 123456789;
  s.wheel_pushes = 1000;
  s.overflow_pushes = 3;
  s.wheel_regrows = 1;
  s.wall_seconds = 1.5e-3;
  s.totals.reads = 42;
  s.totals.read_latency_hist.record(17);
  s.totals.read_latency_hist.record(90000);

  const std::string bytes = core::serialize_summary(s);
  core::RunSummary back;
  ASSERT_TRUE(core::deserialize_summary(bytes, &back));
  EXPECT_EQ(core::serialize_summary(back), bytes);
  EXPECT_EQ(back.run_time, s.run_time);
  EXPECT_EQ(back.wheel_regrows, 1u);
  EXPECT_EQ(back.shared_cache_hit_rate, s.shared_cache_hit_rate);
  EXPECT_EQ(back.totals.read_latency_hist.total(),
            s.totals.read_latency_hist.total());

  EXPECT_FALSE(core::deserialize_summary("", &back));
  EXPECT_FALSE(core::deserialize_summary("format wrong\n", &back));
  EXPECT_FALSE(core::deserialize_summary(bytes.substr(0, bytes.size() / 2),
                                         &back));
}

}  // namespace
}  // namespace netcache
