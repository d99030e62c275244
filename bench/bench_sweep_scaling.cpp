// Sweep-driver scaling measurement: the Figure 6 grid (12 apps x 4 systems,
// 48 independent cells) run end to end at 1 / 4 / 8 / 16 worker threads.
// Emits BENCH_sweep.json (override with NETCACHE_BENCH_SWEEP_JSON) recording
// the wall-clock per worker count, the speedup over the sequential run, and
// whether every parallel run reproduced the sequential results byte for byte
// (each cell's full serialized RunSummary, wall_seconds zeroed — the
// determinism contract).
//
// --scale (default 1.0) scales the workloads so CI-class and laptop-class
// hosts can both record a tractable number.
//
//   ./bench_sweep_scaling [--scale=X] [--jobs=1,4,8,16]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/core/run_summary.hpp"
#include "src/sweep/sweep.hpp"

using namespace netcache;

namespace {

struct Point {
  int jobs = 0;
  double seconds = 0.0;
  bool deterministic = true;
};

std::vector<sweep::Cell> fig6_grid(double scale) {
  static const SystemKind kSystems[] = {
      SystemKind::kNetCache, SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
      SystemKind::kDmonInvalidate};
  std::vector<sweep::Cell> cells;
  for (const auto& app : apps::workload_names()) {
    for (SystemKind kind : kSystems) {
      sweep::Cell cell;
      cell.app = app;
      cell.system = kind;
      cell.scale = scale;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

double run_grid(const std::vector<sweep::Cell>& cells, int jobs,
                std::vector<core::RunSummary>* out) {
  sweep::SweepDriver driver(jobs);
  for (const auto& cell : cells) driver.submit(cell);
  auto t0 = std::chrono::steady_clock::now();
  const auto& results = driver.run();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out->clear();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok || !results[i].summary.verified) {
      std::fprintf(stderr, "FATAL: cell %s %s\n",
                   driver.cell(i).label().c_str(),
                   results[i].ok ? "failed verification"
                                 : results[i].error.c_str());
      std::exit(1);
    }
    out->push_back(results[i].summary);
  }
  return secs;
}

/// Full-fidelity identity: the entire serialized summary, wall-clock zeroed
/// (host observability, not a simulated result).
std::string canonical_summary(core::RunSummary s) {
  s.wall_seconds = 0.0;
  return core::serialize_summary(s);
}

// The determinism contract: simulated results must not depend on the worker
// count.
bool same_results(const std::vector<core::RunSummary>& a,
                  const std::vector<core::RunSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (canonical_summary(a[i]) != canonical_summary(b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::vector<int> jobs_list = {1, 4, 8, 16};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs_list.clear();
      for (const char* p = argv[i] + 7; *p != '\0';) {
        jobs_list.push_back(std::atoi(p));
        p = std::strchr(p, ',');
        if (!p) break;
        ++p;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--scale=X] [--jobs=1,4,8,16]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!std::isfinite(scale) || scale <= 0 || jobs_list.empty()) {
    std::fprintf(stderr, "bad --scale or --jobs\n");
    return 1;
  }

  const auto cells = fig6_grid(scale);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Figure 6 grid: %zu cells, scale %.2f, host has %u thread(s)\n",
              cells.size(), scale, hw);

  // A 1-hardware-thread host cannot measure parallel speedup: every worker
  // count times the same serial throughput plus scheduler noise, and a
  // "0.9x speedup at jobs=8" point would read as a regression. Record the
  // sequential point only, with a note explaining the skip.
  bool skipped_multi_worker = false;
  if (hw <= 1 && jobs_list.size() > 1) {
    jobs_list.resize(1);
    skipped_multi_worker = true;
    std::printf("  (1 hardware thread: skipping multi-worker points)\n");
  }

  std::vector<core::RunSummary> reference;
  std::vector<core::RunSummary> current;
  std::vector<Point> points;
  double sequential = 0.0;
  for (int jobs : jobs_list) {
    double secs = run_grid(cells, jobs, jobs == jobs_list.front()
                                            ? &reference
                                            : &current);
    Point p;
    p.jobs = jobs;
    p.seconds = secs;
    if (jobs == jobs_list.front()) {
      sequential = secs;
    } else {
      p.deterministic = same_results(reference, current);
    }
    points.push_back(p);
    std::printf("  jobs=%-3d %8.2f s  speedup %.2fx  %s\n", jobs, secs,
                sequential > 0 ? sequential / secs : 0.0,
                p.deterministic ? "byte-identical to sequential"
                                : "RESULTS DIVERGED");
  }

  const char* path = std::getenv("NETCACHE_BENCH_SWEEP_JSON");
  if (!path) path = "BENCH_sweep.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_sweep_scaling\",\n");
  std::fprintf(f, "  \"grid\": \"figure 6 (12 apps x 4 systems)\",\n");
  std::fprintf(f, "  \"cells\": %zu,\n", cells.size());
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"skipped_multi_worker_points\": %s,\n",
               skipped_multi_worker ? "true" : "false");
  std::fprintf(f,
               "  \"notes\": \"speedup is bounded by the host's hardware "
               "thread count: on a 1-core container every worker count "
               "measures the same serial throughput plus scheduler noise; "
               "the >=3x target at --jobs=8 applies to CI-class (8+ core) "
               "hosts. deterministic=true means every cell's serialized "
               "RunSummary (wall_seconds zeroed) is byte-identical to the "
               "sequential run's.\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "    {\"jobs\": %d, \"seconds\": %.3f, \"speedup\": %.3f, "
                 "\"deterministic\": %s}%s\n",
                 points[i].jobs, points[i].seconds,
                 points[i].seconds > 0 ? sequential / points[i].seconds : 0.0,
                 points[i].deterministic ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  bool all_deterministic = true;
  for (const auto& p : points) all_deterministic &= p.deterministic;
  return all_deterministic ? 0 : 1;
}
