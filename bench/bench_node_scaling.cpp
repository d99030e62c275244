// Node-count scaling of the coherence hot path (DESIGN.md section 16): the
// Table 4 grid's update/invalidate delivery used to probe every node's L2 on
// every shared-write commit, so host cost per simulated write grew linearly
// with machine size. The sharer map makes delivery O(sharers); this bench
// sweeps 16/64/256 nodes across every system and records, per point,
// host events/sec with tracking on and off, the probes avoided, and whether
// the two runs' serialized summaries stayed byte-identical (the contract the
// map must never break).
//
// Emits BENCH_nodes.json (override with NETCACHE_BENCH_NODES_JSON).
// --scale (default 1.0) scales the workload for CI-class hosts.
//
//   ./bench_node_scaling [--scale=X] [--nodes=16,64,256] [--app=gauss]
//                        [--summaries-dir=DIR]
//
// --summaries-dir writes each point's canonical serialized summary to
// <dir>/<system>_<nodes>_{tracked,untracked}.csv so CI can byte-diff the
// pairs independently of this binary's own identity check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run_summary.hpp"
#include "src/sweep/sweep.hpp"

using namespace netcache;

namespace {

constexpr SystemKind kSystems[] = {
    SystemKind::kNetCache, SystemKind::kNetCacheNoRing, SystemKind::kLambdaNet,
    SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate};

struct NodePoint {
  SystemKind system = SystemKind::kNetCache;
  int nodes = 0;
  double tracked_seconds = 0.0;
  double untracked_seconds = 0.0;
  std::uint64_t events = 0;
  SnoopStats snoop;  // from the tracked run
  bool identical = true;
};

/// Full-fidelity identity: the entire serialized summary, wall-clock zeroed
/// (host observability, not a simulated result).
std::string canonical_summary(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

double run_point(const std::string& app, SystemKind system, int nodes,
                 double scale, bool tracking, core::RunSummary* out) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = system;
  cell.nodes = nodes;
  cell.scale = scale;
  cell.tweak = [tracking](MachineConfig& cfg) {
    // The default 128 cache channels must divide evenly among home nodes;
    // machines past that get one channel per node (same per-node share).
    if (cfg.nodes > 128) cfg.ring.channels = cfg.nodes;
    cfg.sharer_tracking = tracking;
  };
  auto t0 = std::chrono::steady_clock::now();
  sweep::CellResult r = sweep::run_cell(cell, /*cache=*/nullptr);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!r.ok || !r.summary.verified) {
    std::fprintf(stderr, "FATAL: %s %s\n", cell.label().c_str(),
                 r.ok ? "failed verification" : r.error.c_str());
    std::exit(1);
  }
  *out = r.summary;
  return secs;
}

bool write_blob(const std::string& path, const std::string& blob) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::vector<int> node_counts = {16, 64, 256};
  std::string app = "gauss";
  std::string summaries_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      node_counts.clear();
      for (const char* p = argv[i] + 8; *p != '\0';) {
        node_counts.push_back(std::atoi(p));
        p = std::strchr(p, ',');
        if (!p) break;
        ++p;
      }
    } else if (std::strncmp(argv[i], "--app=", 6) == 0) {
      app = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--summaries-dir=", 16) == 0) {
      summaries_dir = argv[i] + 16;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=X] [--nodes=16,64,256] [--app=A] "
                   "[--summaries-dir=DIR]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!std::isfinite(scale) || scale <= 0 || node_counts.empty() ||
      app.empty()) {
    std::fprintf(stderr, "bad --scale, --nodes, or --app\n");
    return 1;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "node scaling: %s at scale %.2f, %zu node count(s) x %zu systems, "
      "host has %u thread(s)\n",
      app.c_str(), scale, node_counts.size(), std::size(kSystems), hw);

  std::vector<NodePoint> points;
  bool all_identical = true;
  bool all_avoiding = true;
  for (SystemKind system : kSystems) {
    for (int nodes : node_counts) {
      NodePoint p;
      p.system = system;
      p.nodes = nodes;
      core::RunSummary tracked;
      core::RunSummary untracked;
      p.tracked_seconds =
          run_point(app, system, nodes, scale, true, &tracked);
      p.untracked_seconds =
          run_point(app, system, nodes, scale, false, &untracked);
      p.events = tracked.events;
      p.snoop = tracked.snoop;
      p.identical = canonical_summary(tracked) == canonical_summary(untracked);
      all_identical &= p.identical;
      all_avoiding &= p.snoop.probes_avoided > 0;
      points.push_back(p);
      const std::uint64_t total = p.snoop.probes + p.snoop.probes_avoided;
      std::printf(
          "  %-12s n=%-4d %8.2f s tracked (%8.0f ev/s), %8.2f s full-scan  "
          "avoided %llu/%llu probes (%.1f%%)  %s\n",
          to_string(system), nodes, p.tracked_seconds,
          p.tracked_seconds > 0
              ? static_cast<double>(p.events) / p.tracked_seconds
              : 0.0,
          p.untracked_seconds,
          static_cast<unsigned long long>(p.snoop.probes_avoided),
          static_cast<unsigned long long>(total),
          total > 0
              ? 100.0 * static_cast<double>(p.snoop.probes_avoided) /
                    static_cast<double>(total)
              : 0.0,
          p.identical ? "byte-identical" : "RESULTS DIVERGED");
      if (!summaries_dir.empty()) {
        const std::string stem = summaries_dir + "/" + to_string(system) +
                                 "_" + std::to_string(nodes);
        if (!write_blob(stem + "_tracked.csv", canonical_summary(tracked)) ||
            !write_blob(stem + "_untracked.csv",
                        canonical_summary(untracked))) {
          return 1;
        }
      }
    }
  }

  const char* path = std::getenv("NETCACHE_BENCH_NODES_JSON");
  if (!path) path = "BENCH_nodes.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_node_scaling\",\n");
  std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n", hw);
  std::fprintf(f,
               "  \"notes\": \"host events/sec, not simulated speed: on a "
               "1-core (or loaded) container the absolute numbers are "
               "scheduler-noisy and only the tracked-vs-untracked contrast "
               "on the same host is meaningful. avoided_frac is "
               "probes_avoided/(probes+probes_avoided) from the tracked "
               "run's SnoopStats; identical=true means the full serialized "
               "RunSummary (wall_seconds zeroed) matched the "
               "sharer_tracking=false full-scan run byte for byte.\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const NodePoint& p = points[i];
    const std::uint64_t total = p.snoop.probes + p.snoop.probes_avoided;
    std::fprintf(
        f,
        "    {\"system\": \"%s\", \"nodes\": %d, \"events\": %llu, "
        "\"tracked_seconds\": %.3f, \"untracked_seconds\": %.3f, "
        "\"events_per_sec\": %.0f, \"deliveries\": %llu, "
        "\"snoop_probes\": %llu, \"snoop_probes_avoided\": %llu, "
        "\"avoided_frac\": %.4f, \"sharer_map_peak_blocks\": %llu, "
        "\"identical\": %s}%s\n",
        to_string(p.system), p.nodes,
        static_cast<unsigned long long>(p.events), p.tracked_seconds,
        p.untracked_seconds,
        p.tracked_seconds > 0
            ? static_cast<double>(p.events) / p.tracked_seconds
            : 0.0,
        static_cast<unsigned long long>(p.snoop.deliveries),
        static_cast<unsigned long long>(p.snoop.probes),
        static_cast<unsigned long long>(p.snoop.probes_avoided),
        total > 0 ? static_cast<double>(p.snoop.probes_avoided) /
                        static_cast<double>(total)
                  : 0.0,
        static_cast<unsigned long long>(p.snoop.peak_blocks),
        p.identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: tracked run diverged from the full scan\n");
    return 1;
  }
  if (!all_avoiding) {
    std::fprintf(stderr, "FATAL: a point avoided zero probes\n");
    return 1;
  }
  return 0;
}
