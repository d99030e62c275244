#include "src/core/report.hpp"

#include <cstdarg>
#include <cstdio>

namespace netcache::core {

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string detailed_report(const MachineConfig& config,
                            const MachineStats& stats,
                            const RunSummary& summary) {
  std::string out;
  append(out, "=== %s running %s on %d nodes ===\n",
         summary.system.c_str(), summary.app.c_str(), summary.nodes);
  append(out, "config: L1 %dKB/%dB  L2 %dKB/%dB  WB %d  mem %lld pc  "
              "%.0f Gbit/s",
         config.l1.size_bytes / 1024, config.l1.block_bytes,
         config.l2.size_bytes / 1024, config.l2.block_bytes,
         config.write_buffer_entries,
         static_cast<long long>(config.mem_block_read_cycles),
         config.gbit_per_s);
  if (config.system == SystemKind::kNetCache) {
    append(out, "  ring %dch x %dblk (%dKB, %s, %s)",
           config.ring.channels, config.ring.blocks_per_channel,
           config.ring.capacity_bytes() / 1024,
           to_string(config.ring.associativity),
           to_string(config.ring.replacement));
  }
  append(out, "\n\nrun time: %lld pcycles  (verified: %s)\n",
         static_cast<long long>(summary.run_time),
         summary.verified ? "yes" : "NO");
  append(out, "%s\n", format_throughput(summary).c_str());
  if (summary.snoop.deliveries > 0) {
    append(out, "%s\n", format_snoop(summary).c_str());
  }

  append(out, "\n%4s %10s %8s %8s %8s %8s %8s %9s %8s\n", "node", "reads",
         "l1%", "l2%", "miss", "shcHit%", "updates", "syncCyc", "finish");
  for (int n = 0; n < stats.nodes(); ++n) {
    const NodeStats& s = stats.node(n);
    double l1p = s.reads ? 100.0 * static_cast<double>(s.l1_hits) /
                               static_cast<double>(s.reads)
                         : 0.0;
    double l2p = s.reads ? 100.0 * static_cast<double>(s.l2_hits) /
                               static_cast<double>(s.reads)
                         : 0.0;
    std::uint64_t probes = s.shared_cache_hits + s.shared_cache_misses;
    double shp = probes ? 100.0 * static_cast<double>(s.shared_cache_hits) /
                              static_cast<double>(probes)
                        : 0.0;
    append(out, "%4d %10llu %7.1f%% %7.1f%% %8llu %7.1f%% %8llu %9lld %8lld\n",
           n, static_cast<unsigned long long>(s.reads), l1p, l2p,
           static_cast<unsigned long long>(s.l2_misses), shp,
           static_cast<unsigned long long>(s.updates_sent),
           static_cast<long long>(s.sync_cycles),
           static_cast<long long>(s.finish_time));
  }

  const NodeStats& t = summary.totals;
  append(out, "\ntotals: reads %llu  writes %llu  updates %llu  "
              "invalidations %llu  writebacks %llu\n",
         static_cast<unsigned long long>(t.reads),
         static_cast<unsigned long long>(t.writes),
         static_cast<unsigned long long>(t.updates_sent),
         static_cast<unsigned long long>(t.invalidations_received),
         static_cast<unsigned long long>(t.writebacks));
  append(out, "read latency: mean %.1f  p50<=%lld  p90<=%lld  p99<=%lld  "
              "(fraction of run time: %.1f%%)\n",
         summary.avg_read_latency,
         static_cast<long long>(summary.read_latency_p50),
         static_cast<long long>(summary.read_latency_p90),
         static_cast<long long>(summary.read_latency_p99),
         100.0 * summary.read_latency_fraction);
  if (t.shared_cache_hits + t.shared_cache_misses > 0) {
    append(out, "shared cache: hit rate %.1f%%  race-window delays %llu\n",
           100.0 * summary.shared_cache_hit_rate,
           static_cast<unsigned long long>(t.race_window_delays));
  }
  if (t.prefetches_issued > 0) {
    append(out, "prefetch: issued %llu  useful %llu (%.1f%%)\n",
           static_cast<unsigned long long>(t.prefetches_issued),
           static_cast<unsigned long long>(t.prefetches_useful),
           100.0 * static_cast<double>(t.prefetches_useful) /
               static_cast<double>(t.prefetches_issued));
  }

  if (summary.verify_enabled) {
    const OracleStats& o = summary.oracle;
    append(out, "\ncoherence oracle: loads checked %llu  commits %llu  "
                "fills %llu  drains %llu\n",
           static_cast<unsigned long long>(o.loads_checked),
           static_cast<unsigned long long>(o.stores_committed),
           static_cast<unsigned long long>(o.fills),
           static_cast<unsigned long long>(o.drains_checked));
    append(out, "  deliveries: updates %llu  invalidations %llu  "
                "ring checks %llu  grants %llu  blocks tracked %llu\n",
           static_cast<unsigned long long>(o.updates_delivered),
           static_cast<unsigned long long>(o.invalidations_delivered),
           static_cast<unsigned long long>(o.ring_checks),
           static_cast<unsigned long long>(o.grants_checked),
           static_cast<unsigned long long>(o.blocks_tracked));
  }
  if (summary.faults_enabled) {
    const FaultStats& f = summary.faults;
    append(out, "\nfault injection: injected %llu  recovered %llu  "
                "retries %llu  unrecovered %llu\n",
           static_cast<unsigned long long>(f.injected),
           static_cast<unsigned long long>(f.recovered),
           static_cast<unsigned long long>(f.retries),
           static_cast<unsigned long long>(f.unrecovered));
  }

  append(out, "\nread latency distribution (bucket upper bound : count)\n");
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    std::uint64_t c = t.read_latency_hist.count_in(b);
    if (c == 0) continue;
    append(out, "  <=%8lld : %llu\n",
           static_cast<long long>(LatencyHistogram::bucket_upper(b)),
           static_cast<unsigned long long>(c));
  }
  return out;
}

}  // namespace netcache::core
