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

// The one field list of a serialized RunSummary, in record order: the writer
// and the strict reader both walk it, so a new field is one line here. The
// histogram is the one compound field (one key per bucket, then .total and
// .sum). SnoopStats stay out (see run_summary.hpp).
template <typename Summary, typename Visitor>
void visit_fields(Summary& s, Visitor& v) {
  v("system", s.system);
  v("app", s.app);
  v("nodes", s.nodes);
  v("run_time", s.run_time);
  v("verified", s.verified);

  auto& t = s.totals;
  v("t.reads", t.reads);
  v("t.l1_hits", t.l1_hits);
  v("t.l2_hits", t.l2_hits);
  v("t.l2_misses", t.l2_misses);
  v("t.local_mem_reads", t.local_mem_reads);
  v("t.read_cycles", t.read_cycles);
  v("t.l2_miss_cycles", t.l2_miss_cycles);
  v("t.shared_cache_hits", t.shared_cache_hits);
  v("t.shared_cache_misses", t.shared_cache_misses);
  v("t.race_window_delays", t.race_window_delays);
  v("t.writes", t.writes);
  v("t.updates_sent", t.updates_sent);
  v("t.update_words", t.update_words);
  v("t.ownership_requests", t.ownership_requests);
  v("t.invalidations_received", t.invalidations_received);
  v("t.writebacks", t.writebacks);
  v("t.wb_full_stall_cycles", t.wb_full_stall_cycles);
  v("t.prefetches_issued", t.prefetches_issued);
  v("t.prefetches_useful", t.prefetches_useful);
  v("t.lock_acquires", t.lock_acquires);
  v("t.barrier_waits", t.barrier_waits);
  v("t.sync_cycles", t.sync_cycles);
  v("t.compute_cycles", t.compute_cycles);
  v("t.finish_time", t.finish_time);
  v("t.hist", t.read_latency_hist);

  v("shared_cache_hit_rate", s.shared_cache_hit_rate);
  v("avg_read_latency", s.avg_read_latency);
  v("avg_l2_miss_latency", s.avg_l2_miss_latency);
  v("read_latency_fraction", s.read_latency_fraction);
  v("sync_fraction", s.sync_fraction);
  v("read_latency_p50", s.read_latency_p50);
  v("read_latency_p90", s.read_latency_p90);
  v("read_latency_p99", s.read_latency_p99);
  v("events", s.events);

  v("verify_enabled", s.verify_enabled);
  v("o.loads_checked", s.oracle.loads_checked);
  v("o.stores_committed", s.oracle.stores_committed);
  v("o.updates_delivered", s.oracle.updates_delivered);
  v("o.invalidations_delivered", s.oracle.invalidations_delivered);
  v("o.fills", s.oracle.fills);
  v("o.ring_checks", s.oracle.ring_checks);
  v("o.grants_checked", s.oracle.grants_checked);
  v("o.drains_checked", s.oracle.drains_checked);
  v("o.blocks_tracked", s.oracle.blocks_tracked);
  v("faults_enabled", s.faults_enabled);
  v("f.injected", s.faults.injected);
  v("f.recovered", s.faults.recovered);
  v("f.retries", s.faults.retries);
  v("f.unrecovered", s.faults.unrecovered);

  v("wheel_pushes", s.wheel_pushes);
  v("overflow_pushes", s.overflow_pushes);
  v("wheel_regrows", s.wheel_regrows);
  v("wall_seconds", s.wall_seconds);
}

/// "<key>.<suffix>" for the histogram's per-bucket and summary keys.
std::string subkey(const char* key, const std::string& suffix) {
  return std::string(key) + "." + suffix;
}

// Line-oriented `key value` records. Doubles go through %a (C99 hex-float):
// strtod() parses it back to the exact same bits, which is what makes a
// cache hit byte-identical to the run that produced it.
class Writer {
 public:
  void operator()(const char* key, const std::string& v) {
    out_ += key;
    out_ += ' ';
    out_ += v;
    out_ += '\n';
  }
  void operator()(const char* key, int v) { (*this)(key, std::to_string(v)); }
  void operator()(const char* key, std::int64_t v) {
    (*this)(key, std::to_string(v));
  }
  void operator()(const char* key, std::uint64_t v) {
    (*this)(key, std::to_string(v));
  }
  void operator()(const char* key, bool v) {
    (*this)(key, std::string(v ? "1" : "0"));
  }
  void operator()(const char* key, double v) {
    char value[64];
    std::snprintf(value, sizeof(value), "%a", v);
    (*this)(key, std::string(value));
  }
  void operator()(const char* key, const LatencyHistogram& h) {
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      (*this)(subkey(key, std::to_string(b)).c_str(), h.count_in(b));
    }
    (*this)(subkey(key, "total").c_str(), h.total());
    (*this)(subkey(key, "sum").c_str(), h.sum_cycles());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// Parsed record: key -> raw value text. A missing key or an unparsable value
// fails the whole read, so a summary written by a build with fewer fields
// never half-loads.
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

  void operator()(const char* key, std::string& v) {
    if (const std::string* raw = find(key)) v = *raw;
  }
  void operator()(const char* key, int& v) {
    std::int64_t n = 0;
    (*this)(key, n);
    v = static_cast<int>(n);
  }
  void operator()(const char* key, std::int64_t& v) {
    parse(key, &v, [](const char* p, char** end) {
      return std::strtoll(p, end, 10);
    });
  }
  void operator()(const char* key, std::uint64_t& v) {
    parse(key, &v, [](const char* p, char** end) {
      return std::strtoull(p, end, 10);
    });
  }
  void operator()(const char* key, bool& v) {
    std::uint64_t n = 0;
    (*this)(key, n);
    if (n > 1) ok_ = false;
    v = n != 0;
  }
  void operator()(const char* key, double& v) {
    parse(key, &v, [](const char* p, char** end) { return std::strtod(p, end); });
  }
  void operator()(const char* key, LatencyHistogram& h) {
    std::array<std::uint64_t, LatencyHistogram::kBuckets> counts{};
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      (*this)(subkey(key, std::to_string(b)).c_str(),
              counts[static_cast<std::size_t>(b)]);
    }
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    (*this)(subkey(key, "total").c_str(), total);
    (*this)(subkey(key, "sum").c_str(), sum);
    if (ok_) h.restore(counts, total, sum);
  }

 private:
  /// The raw value of `key`; null (and the read failed) when it is missing.
  const std::string* find(const char* key) {
    auto it = fields_.find(key);
    if (it != fields_.end()) return &it->second;
    ok_ = false;
    return nullptr;
  }

  /// Parses all of `key`'s value with `convert` (a strto* call).
  template <typename T, typename Convert>
  void parse(const char* key, T* v, Convert convert) {
    const std::string* raw = find(key);
    if (raw == nullptr) return;
    char* end = nullptr;
    *v = static_cast<T>(convert(raw->c_str(), &end));
    if (end == raw->c_str() || *end != '\0') ok_ = false;
  }

  std::map<std::string, std::string> fields_;
  bool ok_ = true;
};

constexpr const char* kSummaryVersion = "run-summary-v1";

}  // namespace

std::string serialize_summary(const RunSummary& s) {
  Writer w;
  w("format", std::string(kSummaryVersion));
  visit_fields(s, w);
  return w.take();
}

bool deserialize_summary(const std::string& text, RunSummary* out) {
  Reader r(text);
  std::string format;
  r("format", format);
  if (!r.ok() || format != kSummaryVersion) return false;
  RunSummary s;
  visit_fields(s, r);
  if (!r.ok()) return false;
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
