// Engine event-core throughput microbenchmark. Takes no arguments.
//
// Measures raw discrete-event throughput (events/sec) for three workloads
// that bracket the engine's usage in the paper reproduction, each repeated
// until its runs add up to kMinSeconds:
//   - pure_delay:           co_await delay() chains, no contention (the
//                           schedule_resume fast path), with a slice of
//                           far-future delays to exercise the overflow path
//   - resource_contention:  FIFO Resource acquire/release handoffs (the
//                           zero-delay resume path)
//   - full_app:             sor on NetCache, 16 nodes (the real workload mix);
//                           also records coroutine frames per event from the
//                           FrameArena counters (leaf accesses run without a
//                           frame, so this tracks how many events still pay
//                           for one)
//
// Also reports timing-wheel occupancy (wheel vs overflow-heap pushes, from
// EventQueue::stats()) for gauss and wf — the two workloads with the most
// far-future scheduling — so kWheelSize tuning has data PR over PR.
//
// Emits BENCH_engine.json (override path with NETCACHE_BENCH_ENGINE_JSON) so
// the event-core perf trajectory is tracked PR over PR: each workload's
// aggregate rate plus the spread of its per-iteration rates, against two
// recorded references — the pre-rewrite std::function + std::priority_queue
// core, and the core before the event record and the per-access host
// structures were flattened.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/frame_arena.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/task.hpp"

namespace netcache::bench {
namespace {

// One timed run of a workload.
struct Run {
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t frames = 0;  // coroutine frames served by the FrameArena
};

// Every run of one workload across the bench's iterations.
struct Measurement {
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t frames = 0;
  std::vector<double> rates;  // events/sec of each iteration
  double events_per_sec() const { return seconds > 0 ? events / seconds : 0; }
  double frames_per_event() const {
    return events > 0 ? static_cast<double>(frames) / events : 0.0;
  }

  void add(const Run& r) {
    events += r.events;
    seconds += r.seconds;
    frames += r.frames;
    rates.push_back(r.seconds > 0 ? static_cast<double>(r.events) / r.seconds
                                  : 0.0);
  }
  /// q-quantile of the per-iteration rates (nearest rank).
  double rate_quantile(double q) const {
    if (rates.empty()) return 0.0;
    std::vector<double> sorted = rates;
    std::sort(sorted.begin(), sorted.end());
    return sorted[static_cast<std::size_t>(q * (sorted.size() - 1) + 0.5)];
  }
};

// Timing-wheel occupancy for one run: how many pushes landed in a wheel
// bucket vs spilled to the overflow min-heap (horizon > kWheelSize cycles).
struct Occupancy {
  std::uint64_t wheel = 0;
  std::uint64_t overflow = 0;
  double overflow_pct() const {
    const double total = static_cast<double>(wheel + overflow);
    return total > 0 ? 100.0 * static_cast<double>(overflow) / total : 0.0;
  }
};

// Reference numbers for the pre-rewrite event core (std::function events in a
// std::priority_queue, malloc'd coroutine frames), measured with this same
// binary before the allocation-free core landed. Kept so every future run of
// this bench reports its speedup against the original implementation.
constexpr double kBaselinePureDelayEps = 6.24e6;
constexpr double kBaselineResourceEps = 14.5e6;
constexpr double kBaselineFullAppEps = 4.04e6;

// Reference numbers for the core this one replaced: the same frame-less leaf
// awaits, but a move-only event record whose every pool move ran
// out-of-line queue code, 24-byte cache lines, a hash-map sharer directory
// and a deque write buffer. Median of 5 runs of this bench built from that
// commit, alternated with runs of the flat core, on a 4-thread Intel Xeon
// host (each workload repeated for 2 s, as kMinSeconds does).
constexpr double kPreFlatPureDelayEps = 18.28e6;
constexpr double kPreFlatResourceEps = 21.72e6;
constexpr double kPreFlatFullAppEps = 11.87e6;
constexpr double kPreFlatFullAppFramesPerEvent = 0.2178;

// Each workload repeats until its timed runs add up to this many seconds.
constexpr double kMinSeconds = 2.0;

// Watchdog guard for every bench run: budgets far above anything a healthy
// workload needs, so a regression that deadlocks or livelocks the engine
// fails fast with a diagnostic instead of hanging CI.
sim::RunLimits bench_limits() {
  sim::RunLimits limits;
  limits.max_events = 1'000'000'000;
  limits.max_stalled_events = 5'000'000;
  return limits;
}

// How the numbers were taken. Recorded into BENCH_engine.json.
constexpr const char* kMeasurementNote =
    "events_per_sec is the aggregate over every benchmark iteration; "
    "min/median/max are per-iteration rates. pre_flat_events_per_sec (and "
    "full_app's pre_flat_frames_per_event) is the median of 5 runs of the "
    "core before the event record, cache tags, sharer map and write buffer "
    "were flattened, alternated with runs of this core on the same host. "
    "frames_per_event counts FrameArena allocations (fresh + reused) per "
    "executed event";

// Everything one invocation measures.
struct Results {
  Measurement pure_delay;
  Measurement resource;
  Measurement full_app;
  Occupancy gauss_occ;
  Occupancy wf_occ;
};

class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

Run run_pure_delay() {
  sim::Engine eng;
  constexpr int kProcs = 2048;
  constexpr int kSteps = 256;
  auto proc = [&eng](int id) -> sim::Task<void> {
    for (int s = 0; s < kSteps; ++s) {
      // Mostly short delays; every 16th step jumps far ahead so the queue
      // also sees far-future scheduling.
      Cycles d = (s % 16 == 15) ? 10000 + (id % 31) * 100
                                : 1 + (id * 7 + s * 13) % 50;
      co_await eng.delay(d);
    }
  };
  for (int i = 0; i < kProcs; ++i) eng.spawn(proc(i));
  WallTimer t;
  eng.run(bench_limits());
  return {eng.events_executed(), t.seconds()};
}

Run run_resource_contention() {
  sim::Engine eng;
  constexpr int kProcs = 512;
  constexpr int kSteps = 256;
  sim::Resource port(eng);
  auto proc = [&](int id) -> sim::Task<void> {
    for (int s = 0; s < kSteps; ++s) {
      co_await port.use(2);
      co_await eng.delay(1 + id % 7);
    }
  };
  for (int i = 0; i < kProcs; ++i) eng.spawn(proc(i));
  WallTimer t;
  eng.run(bench_limits());
  return {eng.events_executed(), t.seconds()};
}

Run run_full_app() {
  const sim::FrameArena& arena = sim::FrameArena::local();
  const std::uint64_t frames0 = arena.fresh_allocations() + arena.reuses();
  WallTimer t;
  sweep::Cell cell;
  cell.app = "sor";
  cell.limits = bench_limits();
  core::RunSummary s = simulate(cell);
  const double seconds = t.seconds();
  return {s.events, seconds,
          arena.fresh_allocations() + arena.reuses() - frames0};
}

Occupancy run_occupancy(const char* app) {
  sweep::Cell cell;
  cell.app = app;
  cell.limits = bench_limits();
  core::RunSummary s = simulate(cell);
  return {s.wheel_pushes, s.overflow_pushes};
}

template <typename RunFn>
Measurement repeat(RunFn run) {
  Measurement m;
  while (m.seconds < kMinSeconds) m.add(run());
  return m;
}

void write_json(const Results& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_engine_throughput: cannot write %s\n", path);
    return;
  }
  // `pre_flat_fpe` < 0: the workload does not record frames per event.
  auto emit = [&](const char* name, const Measurement& m, double baseline_eps,
                  double pre_flat_eps, double pre_flat_fpe,
                  const char* trailing_comma) {
    const double eps = m.events_per_sec();
    std::fprintf(f,
                 "    \"%s\": {\"events\": %llu, \"seconds\": %.4f, "
                 "\"iterations\": %zu, \"events_per_sec\": %.4g, "
                 "\"min_events_per_sec\": %.4g, "
                 "\"median_events_per_sec\": %.4g, "
                 "\"max_events_per_sec\": %.4g, ",
                 name, static_cast<unsigned long long>(m.events), m.seconds,
                 m.rates.size(), eps, m.rate_quantile(0.0),
                 m.rate_quantile(0.5), m.rate_quantile(1.0));
    if (pre_flat_fpe >= 0) {
      std::fprintf(f,
                   "\"frames_per_event\": %.4f, "
                   "\"pre_flat_frames_per_event\": %.4f, ",
                   m.frames_per_event(), pre_flat_fpe);
    }
    std::fprintf(f,
                 "\"pre_flat_events_per_sec\": %.4g, "
                 "\"speedup_vs_pre_flat\": %.2f, "
                 "\"baseline_events_per_sec\": %.4g, "
                 "\"speedup_vs_baseline\": %.2f}%s\n",
                 pre_flat_eps, pre_flat_eps > 0 ? eps / pre_flat_eps : 0.0,
                 baseline_eps, baseline_eps > 0 ? eps / baseline_eps : 0.0,
                 trailing_comma);
  };
  auto emit_occ = [&](const char* name, const Occupancy& o,
                      const char* trailing_comma) {
    std::fprintf(f,
                 "    \"%s\": {\"wheel_pushes\": %llu, \"overflow_pushes\": "
                 "%llu, \"overflow_pct\": %.4f}%s\n",
                 name, static_cast<unsigned long long>(o.wheel),
                 static_cast<unsigned long long>(o.overflow),
                 o.overflow_pct(), trailing_comma);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_engine_throughput\",\n");
  std::fprintf(f, "  \"unit\": \"events/sec\",\n");
  std::fprintf(f, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"baseline\": \"std::function events + std::priority_queue"
               " + malloc'd coroutine frames (pre allocation-free core)\",\n");
  std::fprintf(f, "  \"notes\": \"%s\",\n", kMeasurementNote);
  std::fprintf(f,
               "  \"timing_wheel_notes\": \"occupancy from "
               "EventQueue::stats(): pushes landing in a wheel bucket vs "
               "spilling to the overflow min-heap; gauss and wf are the "
               "far-future-heaviest workloads, so a rising overflow_pct here "
               "is the signal to grow kWheelSize\",\n");
  std::fprintf(f, "  \"timing_wheel\": {\n");
  emit_occ("gauss", r.gauss_occ, ",");
  emit_occ("wf", r.wf_occ, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"workloads\": {\n");
  emit("pure_delay", r.pure_delay, kBaselinePureDelayEps,
       kPreFlatPureDelayEps, -1, ",");
  emit("resource_contention", r.resource, kBaselineResourceEps,
       kPreFlatResourceEps, -1, ",");
  emit("full_app", r.full_app, kBaselineFullAppEps, kPreFlatFullAppEps,
       kPreFlatFullAppFramesPerEvent, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void print_summary(const Results& r) {
  std::printf("\n== engine event-core throughput (events/sec) ==\n");
  auto line = [](const char* name, const Measurement& m, double base,
                 double pre_flat) {
    const double eps = m.events_per_sec();
    std::printf("%-20s %12.3g ev/s  (pre-flat %9.3g, %.2fx; baseline %9.3g, "
                "%.2fx)\n",
                name, eps, pre_flat, pre_flat > 0 ? eps / pre_flat : 0.0, base,
                base > 0 ? eps / base : 0.0);
  };
  line("pure_delay", r.pure_delay, kBaselinePureDelayEps,
       kPreFlatPureDelayEps);
  line("resource_contention", r.resource, kBaselineResourceEps,
       kPreFlatResourceEps);
  line("full_app", r.full_app, kBaselineFullAppEps, kPreFlatFullAppEps);
  std::printf("%-20s %12.3f frames/event  (pre-flat %.3f)\n", "full_app",
              r.full_app.frames_per_event(), kPreFlatFullAppFramesPerEvent);
  std::printf("\n== timing-wheel occupancy (EventQueue::stats()) ==\n");
  auto occ_line = [](const char* name, const Occupancy& o) {
    std::printf("%-20s wheel %12llu  overflow %8llu  (%.3f%% overflow)\n",
                name, static_cast<unsigned long long>(o.wheel),
                static_cast<unsigned long long>(o.overflow), o.overflow_pct());
  };
  occ_line("gauss", r.gauss_occ);
  occ_line("wf", r.wf_occ);
}

}  // namespace
}  // namespace netcache::bench

int main(int argc, char** argv) {
  using namespace netcache::bench;
  if (argc > 1) {
    std::fprintf(stderr,
                 "bench_engine_throughput: unknown argument '%s' (the bench "
                 "takes none)\n",
                 argv[1]);
    return 1;
  }
  Results r;
  r.pure_delay = repeat(run_pure_delay);
  r.resource = repeat(run_resource_contention);
  r.full_app = repeat(run_full_app);
  r.gauss_occ = run_occupancy("gauss");
  r.wf_occ = run_occupancy("wf");
  print_summary(r);
  const char* path = std::getenv("NETCACHE_BENCH_ENGINE_JSON");
  write_json(r, path ? path : "BENCH_engine.json");
  return 0;
}
