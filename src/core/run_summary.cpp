#include "src/core/run_summary.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace netcache::core {

std::string format_summary(const RunSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-10s %-9s n=%-2d time=%-10lld readlat=%6.1f miss=%6.1f "
                "shc=%5.1f%% sync=%4.1f%% %s",
                s.app.c_str(), s.system.c_str(), s.nodes,
                static_cast<long long>(s.run_time), s.avg_read_latency,
                s.avg_l2_miss_latency, 100.0 * s.shared_cache_hit_rate,
                100.0 * s.sync_fraction, s.verified ? "ok" : "VERIFY-FAIL");
  std::string out = buf;
  // Appended only when the layers ran, keeping plain-run output unchanged.
  if (s.verify_enabled) {
    std::snprintf(buf, sizeof(buf), " oracle[loads=%llu commits=%llu]",
                  static_cast<unsigned long long>(s.oracle.loads_checked),
                  static_cast<unsigned long long>(s.oracle.stores_committed));
    out += buf;
  }
  if (s.faults_enabled) {
    std::snprintf(
        buf, sizeof(buf), " faults[inj=%llu rec=%llu retry=%llu unrec=%llu]",
        static_cast<unsigned long long>(s.faults.injected),
        static_cast<unsigned long long>(s.faults.recovered),
        static_cast<unsigned long long>(s.faults.retries),
        static_cast<unsigned long long>(s.faults.unrecovered));
    out += buf;
  }
  return out;
}

namespace {

// Line-oriented `key value` records. Doubles go through %a (C99 hex-float):
// strtod() parses it back to the exact same bits, which is what makes a
// cache hit byte-identical to the run that produced it.
class Writer {
 public:
  void u64(const char* key, std::uint64_t v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %llu\n", key,
                  static_cast<unsigned long long>(v));
    out_ += buf;
  }
  void i64(const char* key, long long v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %lld\n", key, v);
    out_ += buf;
  }
  void f64(const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %a\n", key, v);
    out_ += buf;
  }
  void str(const char* key, const std::string& v) {
    out_ += key;
    out_ += ' ';
    out_ += v;
    out_ += '\n';
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// Parsed record: key -> raw value text. Missing keys fail deserialization,
// so a summary written by a build with fewer fields never half-loads.
class Reader {
 public:
  explicit Reader(const std::string& text) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) break;  // no trailing newline: truncated
      std::size_t space = text.find(' ', pos);
      if (space == std::string::npos || space > eol) {
        ok_ = false;
        return;
      }
      fields_[text.substr(pos, space - pos)] =
          text.substr(space + 1, eol - space - 1);
      pos = eol + 1;
    }
    ok_ = pos == text.size();  // trailing garbage without newline: truncated
  }

  bool ok() const { return ok_; }

  bool u64(const char* key, std::uint64_t* v) {
    const std::string* raw = find(key);
    if (raw == nullptr) return false;
    char* end = nullptr;
    *v = std::strtoull(raw->c_str(), &end, 10);
    return end != raw->c_str() && *end == '\0';
  }
  bool i64(const char* key, long long* v) {
    const std::string* raw = find(key);
    if (raw == nullptr) return false;
    char* end = nullptr;
    *v = std::strtoll(raw->c_str(), &end, 10);
    return end != raw->c_str() && *end == '\0';
  }
  bool f64(const char* key, double* v) {
    const std::string* raw = find(key);
    if (raw == nullptr) return false;
    char* end = nullptr;
    *v = std::strtod(raw->c_str(), &end);
    return end != raw->c_str() && *end == '\0';
  }
  bool boolean(const char* key, bool* v) {
    std::uint64_t n = 0;
    if (!u64(key, &n) || n > 1) return false;
    *v = n != 0;
    return true;
  }
  bool str(const char* key, std::string* v) {
    const std::string* raw = find(key);
    if (raw == nullptr) return false;
    *v = *raw;
    return true;
  }

 private:
  const std::string* find(const char* key) const {
    auto it = fields_.find(key);
    return it == fields_.end() ? nullptr : &it->second;
  }

  std::map<std::string, std::string> fields_;
  bool ok_ = true;
};

constexpr const char* kSummaryVersion = "run-summary-v1";

}  // namespace

std::string serialize_summary(const RunSummary& s) {
  Writer w;
  w.str("format", kSummaryVersion);
  w.str("system", s.system);
  w.str("app", s.app);
  w.i64("nodes", s.nodes);
  w.i64("run_time", static_cast<long long>(s.run_time));
  w.u64("verified", s.verified ? 1 : 0);

  const NodeStats& t = s.totals;
  w.u64("t.reads", t.reads);
  w.u64("t.l1_hits", t.l1_hits);
  w.u64("t.l2_hits", t.l2_hits);
  w.u64("t.l2_misses", t.l2_misses);
  w.u64("t.local_mem_reads", t.local_mem_reads);
  w.i64("t.read_cycles", static_cast<long long>(t.read_cycles));
  w.i64("t.l2_miss_cycles", static_cast<long long>(t.l2_miss_cycles));
  w.u64("t.shared_cache_hits", t.shared_cache_hits);
  w.u64("t.shared_cache_misses", t.shared_cache_misses);
  w.u64("t.race_window_delays", t.race_window_delays);
  w.u64("t.writes", t.writes);
  w.u64("t.updates_sent", t.updates_sent);
  w.u64("t.update_words", t.update_words);
  w.u64("t.ownership_requests", t.ownership_requests);
  w.u64("t.invalidations_received", t.invalidations_received);
  w.u64("t.writebacks", t.writebacks);
  w.i64("t.wb_full_stall_cycles", static_cast<long long>(t.wb_full_stall_cycles));
  w.u64("t.prefetches_issued", t.prefetches_issued);
  w.u64("t.prefetches_useful", t.prefetches_useful);
  w.u64("t.lock_acquires", t.lock_acquires);
  w.u64("t.barrier_waits", t.barrier_waits);
  w.i64("t.sync_cycles", static_cast<long long>(t.sync_cycles));
  w.i64("t.compute_cycles", static_cast<long long>(t.compute_cycles));
  w.i64("t.finish_time", static_cast<long long>(t.finish_time));
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    char key[32];
    std::snprintf(key, sizeof(key), "t.hist.%d", b);
    w.u64(key, t.read_latency_hist.count_in(b));
  }
  w.u64("t.hist.total", t.read_latency_hist.total());
  w.u64("t.hist.sum", t.read_latency_hist.sum_cycles());

  w.f64("shared_cache_hit_rate", s.shared_cache_hit_rate);
  w.f64("avg_read_latency", s.avg_read_latency);
  w.f64("avg_l2_miss_latency", s.avg_l2_miss_latency);
  w.f64("read_latency_fraction", s.read_latency_fraction);
  w.f64("sync_fraction", s.sync_fraction);
  w.i64("read_latency_p50", static_cast<long long>(s.read_latency_p50));
  w.i64("read_latency_p90", static_cast<long long>(s.read_latency_p90));
  w.i64("read_latency_p99", static_cast<long long>(s.read_latency_p99));
  w.u64("events", s.events);

  w.u64("verify_enabled", s.verify_enabled ? 1 : 0);
  w.u64("o.loads_checked", s.oracle.loads_checked);
  w.u64("o.stores_committed", s.oracle.stores_committed);
  w.u64("o.updates_delivered", s.oracle.updates_delivered);
  w.u64("o.invalidations_delivered", s.oracle.invalidations_delivered);
  w.u64("o.fills", s.oracle.fills);
  w.u64("o.ring_checks", s.oracle.ring_checks);
  w.u64("o.grants_checked", s.oracle.grants_checked);
  w.u64("o.drains_checked", s.oracle.drains_checked);
  w.u64("o.blocks_tracked", s.oracle.blocks_tracked);
  w.u64("faults_enabled", s.faults_enabled ? 1 : 0);
  w.u64("f.injected", s.faults.injected);
  w.u64("f.recovered", s.faults.recovered);
  w.u64("f.retries", s.faults.retries);
  w.u64("f.unrecovered", s.faults.unrecovered);

  w.u64("wheel_pushes", s.wheel_pushes);
  w.u64("overflow_pushes", s.overflow_pushes);
  w.u64("wheel_regrows", s.wheel_regrows);
  w.f64("wall_seconds", s.wall_seconds);
  return w.take();
}

bool deserialize_summary(const std::string& text, RunSummary* out) {
  Reader r(text);
  if (!r.ok()) return false;
  std::string format;
  if (!r.str("format", &format) || format != kSummaryVersion) return false;

  RunSummary s;
  long long ll = 0;
  bool ok = true;
  ok = ok && r.str("system", &s.system);
  ok = ok && r.str("app", &s.app);
  ok = ok && r.i64("nodes", &ll);
  s.nodes = static_cast<int>(ll);
  ok = ok && r.i64("run_time", &ll);
  s.run_time = static_cast<Cycles>(ll);
  ok = ok && r.boolean("verified", &s.verified);

  NodeStats& t = s.totals;
  ok = ok && r.u64("t.reads", &t.reads);
  ok = ok && r.u64("t.l1_hits", &t.l1_hits);
  ok = ok && r.u64("t.l2_hits", &t.l2_hits);
  ok = ok && r.u64("t.l2_misses", &t.l2_misses);
  ok = ok && r.u64("t.local_mem_reads", &t.local_mem_reads);
  ok = ok && r.i64("t.read_cycles", &ll);
  t.read_cycles = static_cast<Cycles>(ll);
  ok = ok && r.i64("t.l2_miss_cycles", &ll);
  t.l2_miss_cycles = static_cast<Cycles>(ll);
  ok = ok && r.u64("t.shared_cache_hits", &t.shared_cache_hits);
  ok = ok && r.u64("t.shared_cache_misses", &t.shared_cache_misses);
  ok = ok && r.u64("t.race_window_delays", &t.race_window_delays);
  ok = ok && r.u64("t.writes", &t.writes);
  ok = ok && r.u64("t.updates_sent", &t.updates_sent);
  ok = ok && r.u64("t.update_words", &t.update_words);
  ok = ok && r.u64("t.ownership_requests", &t.ownership_requests);
  ok = ok && r.u64("t.invalidations_received", &t.invalidations_received);
  ok = ok && r.u64("t.writebacks", &t.writebacks);
  ok = ok && r.i64("t.wb_full_stall_cycles", &ll);
  t.wb_full_stall_cycles = static_cast<Cycles>(ll);
  ok = ok && r.u64("t.prefetches_issued", &t.prefetches_issued);
  ok = ok && r.u64("t.prefetches_useful", &t.prefetches_useful);
  ok = ok && r.u64("t.lock_acquires", &t.lock_acquires);
  ok = ok && r.u64("t.barrier_waits", &t.barrier_waits);
  ok = ok && r.i64("t.sync_cycles", &ll);
  t.sync_cycles = static_cast<Cycles>(ll);
  ok = ok && r.i64("t.compute_cycles", &ll);
  t.compute_cycles = static_cast<Cycles>(ll);
  ok = ok && r.i64("t.finish_time", &ll);
  t.finish_time = static_cast<Cycles>(ll);
  std::array<std::uint64_t, LatencyHistogram::kBuckets> counts{};
  for (int b = 0; ok && b < LatencyHistogram::kBuckets; ++b) {
    char key[32];
    std::snprintf(key, sizeof(key), "t.hist.%d", b);
    ok = r.u64(key, &counts[static_cast<std::size_t>(b)]);
  }
  std::uint64_t hist_total = 0;
  std::uint64_t hist_sum = 0;
  ok = ok && r.u64("t.hist.total", &hist_total);
  ok = ok && r.u64("t.hist.sum", &hist_sum);
  if (ok) t.read_latency_hist.restore(counts, hist_total, hist_sum);

  ok = ok && r.f64("shared_cache_hit_rate", &s.shared_cache_hit_rate);
  ok = ok && r.f64("avg_read_latency", &s.avg_read_latency);
  ok = ok && r.f64("avg_l2_miss_latency", &s.avg_l2_miss_latency);
  ok = ok && r.f64("read_latency_fraction", &s.read_latency_fraction);
  ok = ok && r.f64("sync_fraction", &s.sync_fraction);
  ok = ok && r.i64("read_latency_p50", &ll);
  s.read_latency_p50 = static_cast<Cycles>(ll);
  ok = ok && r.i64("read_latency_p90", &ll);
  s.read_latency_p90 = static_cast<Cycles>(ll);
  ok = ok && r.i64("read_latency_p99", &ll);
  s.read_latency_p99 = static_cast<Cycles>(ll);
  ok = ok && r.u64("events", &s.events);

  ok = ok && r.boolean("verify_enabled", &s.verify_enabled);
  ok = ok && r.u64("o.loads_checked", &s.oracle.loads_checked);
  ok = ok && r.u64("o.stores_committed", &s.oracle.stores_committed);
  ok = ok && r.u64("o.updates_delivered", &s.oracle.updates_delivered);
  ok = ok &&
       r.u64("o.invalidations_delivered", &s.oracle.invalidations_delivered);
  ok = ok && r.u64("o.fills", &s.oracle.fills);
  ok = ok && r.u64("o.ring_checks", &s.oracle.ring_checks);
  ok = ok && r.u64("o.grants_checked", &s.oracle.grants_checked);
  ok = ok && r.u64("o.drains_checked", &s.oracle.drains_checked);
  ok = ok && r.u64("o.blocks_tracked", &s.oracle.blocks_tracked);
  ok = ok && r.boolean("faults_enabled", &s.faults_enabled);
  ok = ok && r.u64("f.injected", &s.faults.injected);
  ok = ok && r.u64("f.recovered", &s.faults.recovered);
  ok = ok && r.u64("f.retries", &s.faults.retries);
  ok = ok && r.u64("f.unrecovered", &s.faults.unrecovered);

  ok = ok && r.u64("wheel_pushes", &s.wheel_pushes);
  ok = ok && r.u64("overflow_pushes", &s.overflow_pushes);
  ok = ok && r.u64("wheel_regrows", &s.wheel_regrows);
  ok = ok && r.f64("wall_seconds", &s.wall_seconds);
  if (!ok) return false;
  *out = std::move(s);
  return true;
}

std::string format_snoop(const RunSummary& s) {
  if (s.snoop.deliveries == 0) return "";
  const double total =
      static_cast<double>(s.snoop.probes + s.snoop.probes_avoided);
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "snoop: deliveries=%llu probes=%llu avoided=%llu "
                "(%.1f%%) peak_blocks=%llu",
                static_cast<unsigned long long>(s.snoop.deliveries),
                static_cast<unsigned long long>(s.snoop.probes),
                static_cast<unsigned long long>(s.snoop.probes_avoided),
                total > 0 ? 100.0 * static_cast<double>(s.snoop.probes_avoided) /
                                total
                          : 0.0,
                static_cast<unsigned long long>(s.snoop.peak_blocks));
  return buf;
}

std::string format_throughput(const RunSummary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "engine: %llu events in %.3f s  (%.3g events/s, "
                "%.3g sim-cycles/s)",
                static_cast<unsigned long long>(s.events), s.wall_seconds,
                s.events_per_sec(), s.sim_cycles_per_sec());
  return buf;
}

}  // namespace netcache::core
