#include "src/sweep/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "netcache_version.hpp"
#include "src/common/config.hpp"
#include "src/sim/event_queue.hpp"

namespace netcache::sweep {

namespace {

std::uint64_t fnv1a64(const char* data, std::size_t n,
                      std::uint64_t h = 14695981039346656037ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s,
                      std::uint64_t h = 14695981039346656037ull) {
  return fnv1a64(s.data(), s.size(), h);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// 128-bit content key: two independent FNV-1a streams (the second salted),
/// rendered as 32 hex digits. Collisions are additionally caught by the
/// key-description comparison on read, so the key only has to make them
/// astronomically rare, not impossible.
std::string content_key(const std::string& desc) {
  std::uint64_t a = fnv1a64(desc);
  std::uint64_t b = fnv1a64(desc, fnv1a64("netcache-result-cache-salt"));
  return hex64(a) + hex64(b);
}

void append_kv(std::string* out, const char* key, const std::string& value) {
  *out += key;
  *out += ' ';
  *out += value;
  *out += '\n';
}

void append_i64(std::string* out, const char* key, long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  append_kv(out, key, buf);
}

void append_u64(std::string* out, const char* key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  append_kv(out, key, buf);
}

void append_f64(std::string* out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  append_kv(out, key, buf);
}

/// Compile-time configuration that changes simulated results or the summary
/// ABI without necessarily showing up in git (local compiler swaps, wheel
/// geometry experiments behind -D flags). Folded into the fingerprint.
std::uint64_t compile_config_hash() {
  std::string desc;
  append_kv(&desc, "compiler", __VERSION__);
  append_u64(&desc, "pointer_bytes", sizeof(void*));
  append_u64(&desc, "machine_config_bytes", sizeof(MachineConfig));
  append_u64(&desc, "run_summary_bytes", sizeof(core::RunSummary));
  append_u64(&desc, "wheel_size", sim::EventQueue::kWheelSize);
  return fnv1a64(desc);
}

constexpr const char* kEntryMagic = "netcache-result-cache-entry v1";

}  // namespace

const std::string& version_fingerprint() {
  static const std::string fp = [] {
    std::string v = NETCACHE_GIT_HEAD;
    if (NETCACHE_GIT_DIRTY) {
      v += "+dirty.";
      v += NETCACHE_GIT_DIFF_HASH;
    }
    v += ".cfg.";
    v += hex64(compile_config_hash());
    return v;
  }();
  return fp;
}

ResultCache::ResultCache(std::string dir, std::string version)
    : dir_(std::move(dir)),
      version_(version.empty() ? version_fingerprint() : std::move(version)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A failure here (read-only parent, bad path) surfaces as store_errors /
  // misses later; the cache must never take the simulation down with it.
}

bool ResultCache::cacheable(const Cell& cell) {
  return cell.make_workload == nullptr;
}

std::string ResultCache::key_description(const Cell& cell,
                                         const std::string& version) {
  // Resolve the configuration exactly the way run_cell() will: defaults,
  // cell geometry, then the tweak's final say. Serializing the resolved
  // struct (rather than trying to fingerprint the tweak closure) means two
  // different tweaks producing the same machine share one entry — which is
  // correct, the results are identical — and every config field added to
  // MachineConfig must be added here (test_result_cache pins the list).
  MachineConfig cfg;
  cfg.nodes = cell.nodes;
  cfg.system = cell.system;
  if (cell.tweak) cell.tweak(cfg);
  // Machine() flips verify on under NETCACHE_VERIFY=1; a run keyed without
  // that bit could alias a verified and an unverified run. Mirror it.
  cfg.apply_verify_env();

  std::string d;
  append_kv(&d, "format", "netcache-result-cache-key v1");
  append_kv(&d, "version", version);
  append_kv(&d, "app", cell.app);
  append_i64(&d, "cell.nodes", cell.nodes);
  append_f64(&d, "cell.scale", cell.scale);
  append_u64(&d, "cell.paper_size", cell.paper_size ? 1 : 0);

  append_i64(&d, "limits.max_cycles",
             static_cast<long long>(cell.limits.max_cycles));
  append_u64(&d, "limits.max_events", cell.limits.max_events);
  append_u64(&d, "limits.max_stalled_events", cell.limits.max_stalled_events);
  append_u64(&d, "limits.fail_on_blocked",
             cell.limits.fail_on_blocked ? 1 : 0);

  append_i64(&d, "cfg.nodes", cfg.nodes);
  append_kv(&d, "cfg.system", to_string(cfg.system));
  append_i64(&d, "cfg.l1.size_bytes", cfg.l1.size_bytes);
  append_i64(&d, "cfg.l1.block_bytes", cfg.l1.block_bytes);
  append_i64(&d, "cfg.l1.associativity", cfg.l1.associativity);
  append_i64(&d, "cfg.l2.size_bytes", cfg.l2.size_bytes);
  append_i64(&d, "cfg.l2.block_bytes", cfg.l2.block_bytes);
  append_i64(&d, "cfg.l2.associativity", cfg.l2.associativity);
  append_i64(&d, "cfg.write_buffer_entries", cfg.write_buffer_entries);
  append_i64(&d, "cfg.l2_hit_cycles",
             static_cast<long long>(cfg.l2_hit_cycles));
  append_i64(&d, "cfg.mem_block_read_cycles",
             static_cast<long long>(cfg.mem_block_read_cycles));
  append_i64(&d, "cfg.mem_queue_hysteresis", cfg.mem_queue_hysteresis);
  append_f64(&d, "cfg.gbit_per_s", cfg.gbit_per_s);
  append_i64(&d, "cfg.ring.channels", cfg.ring.channels);
  append_i64(&d, "cfg.ring.blocks_per_channel", cfg.ring.blocks_per_channel);
  append_i64(&d, "cfg.ring.block_bytes", cfg.ring.block_bytes);
  append_i64(&d, "cfg.ring.base_roundtrip_cycles",
             static_cast<long long>(cfg.ring.base_roundtrip_cycles));
  append_kv(&d, "cfg.ring.replacement", to_string(cfg.ring.replacement));
  append_kv(&d, "cfg.ring.associativity", to_string(cfg.ring.associativity));
  append_i64(&d, "cfg.ring.read_overhead_cycles",
             static_cast<long long>(cfg.ring.read_overhead_cycles));
  append_u64(&d, "cfg.reads_start_on_star", cfg.reads_start_on_star ? 1 : 0);
  append_u64(&d, "cfg.sequential_prefetch", cfg.sequential_prefetch ? 1 : 0);
  append_u64(&d, "cfg.seed", cfg.seed);
  append_u64(&d, "cfg.verify", cfg.verify ? 1 : 0);
  append_kv(&d, "cfg.faults.spec", cfg.faults.spec);
  append_u64(&d, "cfg.faults.seed", cfg.faults.seed);
  append_u64(&d, "cfg.faults.recovery", cfg.faults.recovery ? 1 : 0);
  append_i64(&d, "cfg.faults.retry_budget", cfg.faults.retry_budget);
  append_i64(&d, "cfg.faults.retry_backoff",
             static_cast<long long>(cfg.faults.retry_backoff));
  return d;
}

std::string ResultCache::key_for(const Cell& cell) const {
  if (!cacheable(cell)) return {};
  return content_key(key_description(cell, version_));
}

std::string ResultCache::entry_path(const std::string& key) const {
  return dir_ + "/" + key + ".ncr";
}

bool ResultCache::lookup(const Cell& cell, core::RunSummary* out) {
  if (!cacheable(cell)) {
    skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::string desc = key_description(cell, version_);
  const std::string key = content_key(desc);

  auto miss = [this] {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };

  std::FILE* f = std::fopen(entry_path(key).c_str(), "rb");
  if (f == nullptr) return miss();
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return miss();

  // Header: four lines, then the two exact-size payload sections, then the
  // "end" sentinel that proves the write ran to completion.
  std::size_t pos = 0;
  auto next_line = [&](std::string* line) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) return false;
    *line = content.substr(pos, eol - pos);
    pos = eol + 1;
    return true;
  };
  std::string line;
  if (!next_line(&line) || line != kEntryMagic) return miss();
  if (!next_line(&line) || line != "key " + key) return miss();
  std::size_t desc_bytes = 0;
  std::size_t summary_bytes = 0;
  unsigned long long checksum = 0;
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "desc_bytes %zu", &desc_bytes) != 1) {
    return miss();
  }
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "summary_bytes %zu", &summary_bytes) != 1) {
    return miss();
  }
  if (!next_line(&line) ||
      std::sscanf(line.c_str(), "payload_fnv %llx", &checksum) != 1) {
    return miss();
  }
  if (content.size() != pos + desc_bytes + summary_bytes + 4 ||
      content.compare(content.size() - 4, 4, "end\n") != 0) {
    return miss();  // truncated or padded
  }
  const char* payload = content.data() + pos;
  if (fnv1a64(payload, desc_bytes + summary_bytes) != checksum) {
    return miss();  // corrupted
  }
  if (content.compare(pos, desc_bytes, desc) != 0) {
    return miss();  // 128-bit fingerprint collision: different cell, same key
  }
  core::RunSummary s;
  if (!core::deserialize_summary(
          content.substr(pos + desc_bytes, summary_bytes), &s)) {
    return miss();
  }
  *out = std::move(s);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::store(const Cell& cell, const core::RunSummary& summary) {
  if (!cacheable(cell)) return;
  const std::string desc = key_description(cell, version_);
  const std::string key = content_key(desc);
  const std::string payload = desc + core::serialize_summary(summary);

  std::string content = kEntryMagic;
  content += "\nkey " + key + "\n";
  append_u64(&content, "desc_bytes", desc.size());
  append_u64(&content, "summary_bytes", payload.size() - desc.size());
  append_kv(&content, "payload_fnv", hex64(fnv1a64(payload)));
  content += payload;
  content += "end\n";

  // Unique temp name per writer, then an atomic rename: a reader sees the
  // old entry, the new entry, or nothing — never a torn file. Same-key
  // racers write identical bytes (the simulation is deterministic), so
  // last-rename-wins is benign.
  static std::atomic<std::uint64_t> temp_counter{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    temp_counter.fetch_add(1, std::memory_order_relaxed)));
  const std::string temp = entry_path(key) + suffix;

  auto fail = [&] {
    // Logged skip, never an error: a read-only or full cache directory
    // degrades to "no memoization" (one warning per cache, counter in
    // stats().store_errors), the sweep itself is unaffected.
    if (store_errors_.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::fprintf(stderr,
                   "result cache: store failed under %s (read-only or full?) "
                   "— continuing without memoization\n",
                   dir_.c_str());
    }
    std::remove(temp.c_str());
  };
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) return fail();
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return fail();
  if (std::rename(temp.c_str(), entry_path(key).c_str()) != 0) return fail();
  stores_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.skips = skips_.load(std::memory_order_relaxed);
  s.store_errors = store_errors_.load(std::memory_order_relaxed);
  return s;
}

namespace {

std::mutex g_shared_mutex;
std::unique_ptr<ResultCache> g_shared_cache;

}  // namespace

ResultCache* shared_cache() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  return g_shared_cache.get();
}

void configure_shared_cache(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  g_shared_cache = std::make_unique<ResultCache>(dir);
}

void disable_shared_cache() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  g_shared_cache.reset();
}

}  // namespace netcache::sweep
