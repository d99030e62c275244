// Result-cache effectiveness measurement: the Figure 6 grid (12 apps x 4
// systems) run twice against one cache directory. The first pass populates
// (or reuses) the cache; the second pass must be served entirely from it,
// bit for bit. Emits BENCH_cache.json (override with
// NETCACHE_BENCH_CACHE_JSON) recording both wall-clocks, the warm/cold
// speedup, per-pass hit/miss/store counters, and whether every warm summary
// serialized byte-identically to its first-pass counterpart.
//
// On a fresh directory the first pass is fully cold and the speedup is the
// headline number (target: >= 10x at paper-relevant scales). In a nightly
// that restored a cache artifact the first pass may already hit; the JSON's
// pass1 counters say which case was measured.
//
//   ./bench_cache_warm [--scale=X] [--jobs=N] [--cache=DIR]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/sweep/result_cache.hpp"

using namespace netcache;

namespace {

std::vector<sweep::Cell> fig6_grid(double scale) {
  static const SystemKind kSystems[] = {
      SystemKind::kNetCache, SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
      SystemKind::kDmonInvalidate};
  std::vector<sweep::Cell> cells;
  for (const auto& app : bench::all_apps()) {
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

struct Pass {
  double seconds = 0.0;
  sweep::CacheStats stats;      // this pass's counter deltas
  std::vector<std::string> serialized;  // canonical bytes per cell
};

Pass run_pass(const std::vector<sweep::Cell>& cells, int jobs) {
  sweep::CacheStats before = sweep::shared_cache()->stats();
  sweep::SweepDriver driver(jobs);
  for (const auto& cell : cells) driver.submit(cell);
  auto t0 = std::chrono::steady_clock::now();
  const auto& results = driver.run();
  Pass pass;
  pass.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok || !results[i].summary.verified) {
      std::fprintf(stderr, "FATAL: cell %s %s\n",
                   driver.cell(i).label().c_str(),
                   results[i].ok ? "failed verification"
                                 : results[i].error.c_str());
      std::exit(1);
    }
    pass.serialized.push_back(core::serialize_summary(results[i].summary));
  }
  sweep::CacheStats after = sweep::shared_cache()->stats();
  pass.stats.hits = after.hits - before.hits;
  pass.stats.misses = after.misses - before.misses;
  pass.stats.stores = after.stores - before.stores;
  pass.stats.skips = after.skips - before.skips;
  pass.stats.store_errors = after.store_errors - before.store_errors;
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int jobs = 0;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      cache_dir = argv[i] + 8;
    } else {
      std::fprintf(stderr, "usage: %s [--scale=X] [--jobs=N] [--cache=DIR]\n",
                   argv[0]);
      return 1;
    }
  }
  if (scale <= 0) {
    std::fprintf(stderr, "bad --scale\n");
    return 1;
  }
  if (!cache_dir.empty()) {
    sweep::configure_shared_cache(cache_dir);
  } else {
    // This bench is pointless without a cache, so default to a directory
    // under the cwd.
    sweep::configure_shared_cache("netcache-sweep-cache");
  }
  const sweep::ResultCache* cache = sweep::shared_cache();

  const auto cells = fig6_grid(scale);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Figure 6 grid: %zu cells, scale %.2f, cache %s\n", cells.size(),
              scale, cache->dir().c_str());
  std::printf("version fingerprint: %s\n", cache->version().c_str());

  Pass first = run_pass(cells, jobs);
  std::printf(
      "  pass 1  %8.2f s  (%llu hit(s), %llu miss(es), %llu store(s))\n",
      first.seconds, static_cast<unsigned long long>(first.stats.hits),
      static_cast<unsigned long long>(first.stats.misses),
      static_cast<unsigned long long>(first.stats.stores));

  Pass warm = run_pass(cells, jobs);
  std::printf(
      "  pass 2  %8.2f s  (%llu hit(s), %llu miss(es), %llu store(s))\n",
      warm.seconds, static_cast<unsigned long long>(warm.stats.hits),
      static_cast<unsigned long long>(warm.stats.misses),
      static_cast<unsigned long long>(warm.stats.stores));

  bool identical = first.serialized == warm.serialized;
  bool all_hits = warm.stats.hits == cells.size();
  double speedup = warm.seconds > 0 ? first.seconds / warm.seconds : 0.0;
  std::printf("  warm speedup %.1fx  %s  %s\n", speedup,
              all_hits ? "all cells served from cache" : "WARM PASS MISSED",
              identical ? "byte-identical summaries"
                        : "SUMMARIES DIVERGED");

  const char* path = std::getenv("NETCACHE_BENCH_CACHE_JSON");
  if (!path) path = "BENCH_cache.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  auto print_pass = [f](const char* name, const Pass& p, bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\"seconds\": %.3f, \"hits\": %llu, "
                 "\"misses\": %llu, \"stores\": %llu, \"skips\": %llu, "
                 "\"store_errors\": %llu}%s\n",
                 name, p.seconds,
                 static_cast<unsigned long long>(p.stats.hits),
                 static_cast<unsigned long long>(p.stats.misses),
                 static_cast<unsigned long long>(p.stats.stores),
                 static_cast<unsigned long long>(p.stats.skips),
                 static_cast<unsigned long long>(p.stats.store_errors),
                 comma ? "," : "");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_cache_warm\",\n");
  std::fprintf(f, "  \"grid\": \"figure 6 (12 apps x 4 systems)\",\n");
  std::fprintf(f, "  \"cells\": %zu,\n", cells.size());
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"version_fingerprint\": \"%s\",\n",
               cache->version().c_str());
  std::fprintf(f,
               "  \"notes\": \"pass1 against the cache directory as found "
               "(cold when fresh, may hit when a nightly restored it), pass2 "
               "fully warm. warm_speedup is the cold/warm ratio and only "
               "meaningful when pass1 had zero hits. byte_identical means "
               "every warm summary serialized to exactly the bytes of its "
               "pass1 counterpart, wall_seconds included.\",\n");
  print_pass("pass1", first, true);
  print_pass("pass2", warm, true);
  std::fprintf(f, "  \"warm_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"warm_all_hits\": %s,\n", all_hits ? "true" : "false");
  std::fprintf(f, "  \"byte_identical\": %s\n", identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return (identical && all_hits) ? 0 : 1;
}
