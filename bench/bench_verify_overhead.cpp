// Coherence-oracle overhead measurement: the tier-1 app pair (gauss, wf)
// on all four protocol stacks, each cell run with the oracle off and on.
// Emits BENCH_verify.json (override the path with NETCACHE_BENCH_VERIFY_JSON)
// recording per-cell wall-clock for both modes, the overhead ratio, and the
// oracle's check counters. The contract (ISSUE acceptance / DESIGN.md §11):
// verify-on must stay within 2x of verify-off on the tier-1 workloads, and
// the simulated results must be bit-identical in both modes.
//
//   ./bench_verify_overhead [--scale=X]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"

using namespace netcache;

namespace {

struct CellResult {
  std::string app;
  SystemKind system = SystemKind::kNetCache;
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  bool identical = true;  // run_time/events equal in both modes
  core::RunSummary verified;
};

double timed_run(const std::string& app, SystemKind kind, double scale,
                 bool verify, core::RunSummary* out) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = kind;
  cell.scale = scale;
  cell.tweak = [verify](MachineConfig& config) { config.verify = verify; };
  auto t0 = std::chrono::steady_clock::now();
  *out = bench::simulate(cell);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  // The oracle must not inherit the CI environment override: the "off" half
  // of every pair really measures the unverified baseline.
  unsetenv("NETCACHE_VERIFY");
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--scale=X]\n", argv[0]);
      return 1;
    }
  }
  if (!std::isfinite(scale) || scale <= 0) {
    std::fprintf(stderr, "bad --scale\n");
    return 1;
  }

  static const SystemKind kSystems[] = {
      SystemKind::kNetCache, SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
      SystemKind::kDmonInvalidate};
  static const char* kApps[] = {"gauss", "wf"};

  std::vector<CellResult> cells;
  double worst_ratio = 0.0;
  bool all_identical = true;
  for (const char* app : kApps) {
    for (SystemKind kind : kSystems) {
      CellResult r;
      r.app = app;
      r.system = kind;
      core::RunSummary off;
      // Two timed passes per mode, keeping the faster one: on a shared/1-core
      // host a single pass is dominated by scheduler noise.
      core::RunSummary on;
      r.off_seconds = timed_run(app, kind, scale, false, &off);
      core::RunSummary off2;
      r.off_seconds =
          std::min(r.off_seconds, timed_run(app, kind, scale, false, &off2));
      r.on_seconds = timed_run(app, kind, scale, true, &on);
      core::RunSummary on2;
      r.on_seconds =
          std::min(r.on_seconds, timed_run(app, kind, scale, true, &on2));
      r.identical = off.run_time == on.run_time && off.events == on.events;
      r.verified = on;
      all_identical &= r.identical;
      double ratio = r.off_seconds > 0 ? r.on_seconds / r.off_seconds : 0.0;
      worst_ratio = std::max(worst_ratio, ratio);
      std::printf("%-8s %-16s off %7.3f s  on %7.3f s  ratio %.2fx  %s\n",
                  app, to_string(kind), r.off_seconds, r.on_seconds, ratio,
                  r.identical ? "bit-identical" : "RESULTS DIVERGED");
      cells.push_back(std::move(r));
    }
  }

  const char* path = std::getenv("NETCACHE_BENCH_VERIFY_JSON");
  if (!path) path = "BENCH_verify.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_verify_overhead\",\n");
  std::fprintf(f, "  \"grid\": \"tier-1 apps (gauss, wf) x 4 systems\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"worst_ratio\": %.3f,\n", worst_ratio);
  std::fprintf(f, "  \"target_ratio\": 2.0,\n");
  std::fprintf(f, "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f,
               "  \"notes\": \"ratio = verify-on wall / verify-off wall, "
               "best of two passes per mode. bit_identical means run_time "
               "and event count match with the oracle on and off (the "
               "oracle is a pure observer).\",\n");
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"system\": \"%s\", \"off_seconds\": %.3f, "
        "\"on_seconds\": %.3f, \"ratio\": %.3f, \"identical\": %s, "
        "\"loads_checked\": %llu, \"stores_committed\": %llu, "
        "\"blocks_tracked\": %llu}%s\n",
        r.app.c_str(), to_string(r.system), r.off_seconds, r.on_seconds,
        r.off_seconds > 0 ? r.on_seconds / r.off_seconds : 0.0,
        r.identical ? "true" : "false",
        static_cast<unsigned long long>(r.verified.oracle.loads_checked),
        static_cast<unsigned long long>(r.verified.oracle.stores_committed),
        static_cast<unsigned long long>(r.verified.oracle.blocks_tracked),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (worst ratio %.2fx, target <= 2x)\n", path,
              worst_ratio);
  return all_identical && worst_ratio <= 2.0 ? 0 : 1;
}
