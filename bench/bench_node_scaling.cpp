// Node-count scaling of the coherence hot path (DESIGN.md section 16): snoop
// delivery visits only the sharers the sharer map records, so host cost per
// simulated event should stay near-flat as the machine widens. This bench
// sweeps 16/64/256 nodes across every system and records, per point, the
// median and interquartile range of the host time over kRepeats runs, host
// events/sec at the median, and the probes the map avoided.
//
// Emits BENCH_nodes.json (override with NETCACHE_BENCH_NODES_JSON).
// --scale (default 1.0) scales the workload for CI-class hosts.
//
//   ./bench_node_scaling [--scale=X] [--nodes=16,64,256] [--app=gauss]
//
// Exits nonzero when a run fails or a point avoided no probes.
#include <algorithm>
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

/// Timed runs per point; the simulated results of every repeat are equal.
constexpr int kRepeats = 5;

constexpr SystemKind kSystems[] = {
    SystemKind::kNetCache, SystemKind::kNetCacheNoRing, SystemKind::kLambdaNet,
    SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate};

struct NodePoint {
  SystemKind system = SystemKind::kNetCache;
  int nodes = 0;
  double seconds = 0.0;      // median of kRepeats runs
  double seconds_iqr = 0.0;  // their interquartile range
  std::uint64_t events = 0;
  SnoopStats snoop;
};

/// q-quantile of `sorted`, interpolated between the two nearest ranks.
double quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double run_point(const std::string& app, SystemKind system, int nodes,
                 double scale, core::RunSummary* out) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = system;
  cell.nodes = nodes;
  cell.scale = scale;
  cell.tweak = [](MachineConfig& cfg) {
    // The default 128 cache channels must divide evenly among home nodes;
    // machines past that get one channel per node (same per-node share).
    if (cfg.nodes > 128) cfg.ring.channels = cfg.nodes;
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

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::vector<int> node_counts = {16, 64, 256};
  std::string app = "gauss";
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
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=X] [--nodes=16,64,256] [--app=A]\n",
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
      "%d runs per point, host has %u thread(s)\n",
      app.c_str(), scale, node_counts.size(), std::size(kSystems), kRepeats,
      hw);

  std::vector<NodePoint> points;
  bool all_avoiding = true;
  for (SystemKind system : kSystems) {
    for (int nodes : node_counts) {
      NodePoint p;
      p.system = system;
      p.nodes = nodes;
      core::RunSummary summary;
      std::vector<double> seconds;
      for (int rep = 0; rep < kRepeats; ++rep) {
        seconds.push_back(run_point(app, system, nodes, scale, &summary));
      }
      std::sort(seconds.begin(), seconds.end());
      p.seconds = quantile(seconds, 0.5);
      p.seconds_iqr = quantile(seconds, 0.75) - quantile(seconds, 0.25);
      p.events = summary.events;
      p.snoop = summary.snoop;
      all_avoiding &= p.snoop.probes_avoided > 0;
      points.push_back(p);
      const std::uint64_t total = p.snoop.probes + p.snoop.probes_avoided;
      std::printf(
          "  %-15s n=%-4d %7.3f s (IQR %.3f, %9.0f ev/s)  avoided %llu/%llu "
          "probes (%.1f%%)\n",
          to_string(system), nodes, p.seconds, p.seconds_iqr,
          p.seconds > 0 ? static_cast<double>(p.events) / p.seconds : 0.0,
          static_cast<unsigned long long>(p.snoop.probes_avoided),
          static_cast<unsigned long long>(total),
          total > 0
              ? 100.0 * static_cast<double>(p.snoop.probes_avoided) /
                    static_cast<double>(total)
              : 0.0);
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
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f,
               "  \"notes\": \"host time, not simulated speed, one run at "
               "a time: seconds is the median of repeats runs of a point "
               "(machine build, workload setup and simulation) and "
               "seconds_iqr their interquartile range; events_per_sec is "
               "events / seconds. avoided_frac is "
               "probes_avoided/(probes+probes_avoided) from SnoopStats.\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const NodePoint& p = points[i];
    const std::uint64_t total = p.snoop.probes + p.snoop.probes_avoided;
    std::fprintf(
        f,
        "    {\"system\": \"%s\", \"nodes\": %d, \"events\": %llu, "
        "\"seconds\": %.3f, \"seconds_iqr\": %.3f, "
        "\"events_per_sec\": %.0f, \"deliveries\": %llu, "
        "\"snoop_probes\": %llu, \"snoop_probes_avoided\": %llu, "
        "\"avoided_frac\": %.4f, \"sharer_map_peak_blocks\": %llu}%s\n",
        to_string(p.system), p.nodes,
        static_cast<unsigned long long>(p.events), p.seconds, p.seconds_iqr,
        p.seconds > 0 ? static_cast<double>(p.events) / p.seconds : 0.0,
        static_cast<unsigned long long>(p.snoop.deliveries),
        static_cast<unsigned long long>(p.snoop.probes),
        static_cast<unsigned long long>(p.snoop.probes_avoided),
        total > 0 ? static_cast<double>(p.snoop.probes_avoided) /
                        static_cast<double>(total)
                  : 0.0,
        static_cast<unsigned long long>(p.snoop.peak_blocks),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  if (!all_avoiding) {
    std::fprintf(stderr, "FATAL: a point avoided zero probes\n");
    return 1;
  }
  return 0;
}
