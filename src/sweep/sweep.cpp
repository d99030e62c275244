#include "src/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

#include "src/apps/workload.hpp"
#include "src/common/nc_assert.hpp"
#include "src/core/machine.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/supervisor.hpp"

namespace netcache::sweep {

std::string Cell::label() const {
  std::string l = make_workload ? (app.empty() ? "<custom>" : app) : app;
  l += "/";
  l += to_string(system);
  return l;
}

CellResult run_cell(const Cell& cell) {
  return run_cell(cell, shared_cache());
}

CellResult run_cell(const Cell& cell, ResultCache* cache) {
  CellResult r;
  if (cache != nullptr && cache->lookup(cell, &r.summary)) {
    r.ok = true;
    r.from_cache = true;
    return r;
  }
  try {
    MachineConfig cfg;
    cfg.nodes = cell.nodes;
    cfg.system = cell.system;
    if (cell.tweak) cell.tweak(cfg);
    core::Machine machine(cfg);
    std::unique_ptr<apps::Workload> workload;
    if (cell.make_workload) {
      workload = cell.make_workload();
    } else {
      apps::WorkloadParams params;
      params.scale = cell.scale;
      params.paper_size = cell.paper_size;
      workload = apps::make_workload(cell.app, params);
    }
    r.summary = machine.run(*workload, cell.limits);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  // Only completed, functionally verified runs are worth memoizing; a failed
  // or unverified cell must be re-simulated (and re-diagnosed) every time.
  if (r.ok && r.summary.verified && cache != nullptr) {
    cache->store(cell, r.summary);
  }
  return r;
}

int default_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {

/// Per-worker task queue. Owners pop from the front; thieves steal from the
/// back, so a victim and its thief contend only on the mutex, never on the
/// same end of a lock-free deque — simple, and the per-cell work (an entire
/// simulation) dwarfs the locking cost by many orders of magnitude.
struct WorkerQueue {
  std::mutex mutex;
  std::deque<std::size_t> tasks;

  bool pop_front(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (tasks.empty()) return false;
    *out = tasks.front();
    tasks.pop_front();
    return true;
  }

  bool steal_back(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (tasks.empty()) return false;
    *out = tasks.back();
    tasks.pop_back();
    return true;
  }
};

}  // namespace

void run_tasks(int jobs, std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (jobs <= 0) jobs = default_jobs();
  if (jobs == 1) {
    for (auto& task : tasks) {
      if (stop_requested()) return;
      task();
    }
    return;
  }
  const int workers =
      static_cast<int>(std::min<std::size_t>(tasks.size(),
                                             static_cast<std::size_t>(jobs)));
  std::vector<WorkerQueue> queues(static_cast<std::size_t>(workers));
  // Seed round-robin: contiguous runs of one figure's cells (often similar
  // cost) spread across the pool instead of landing on one worker.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    queues[i % static_cast<std::size_t>(workers)].tasks.push_back(i);
  }
  auto worker_loop = [&](int me) {
    std::size_t idx;
    for (;;) {
      // Graceful stop: drop the remaining queue on the floor. Whoever
      // installed the handlers (reproduce, netcache_sim) marks un-run cells
      // and prints the partial-grid summary.
      if (stop_requested()) return;
      if (queues[static_cast<std::size_t>(me)].pop_front(&idx)) {
        tasks[idx]();
        continue;
      }
      // Own queue empty: steal. One full scan finding nothing means every
      // queue is drained (tasks are never re-queued), so the worker retires;
      // in-flight tasks on other workers need no help from this one.
      bool stole = false;
      for (int step = 1; step < workers; ++step) {
        int victim = (me + step) % workers;
        if (queues[static_cast<std::size_t>(victim)].steal_back(&idx)) {
          stole = true;
          break;
        }
      }
      if (!stole) return;
      tasks[idx]();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (auto& t : pool) t.join();
}

SweepDriver::SweepDriver(int jobs)
    : jobs_(jobs <= 0 ? default_jobs() : jobs) {}

std::size_t SweepDriver::submit(Cell cell) {
  NC_ASSERT(!ran_, "SweepDriver::submit after run");
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::size_t SweepDriver::cache_hits() const {
  std::size_t hits = 0;
  for (const auto& r : results_) hits += r.from_cache ? 1 : 0;
  return hits;
}

const std::vector<CellResult>& SweepDriver::run() {
  NC_ASSERT(!ran_, "SweepDriver runs exactly once");
  ran_ = true;
  ResultCache* cache = cache_overridden_ ? explicit_cache_ : shared_cache();
  if (isolation_.enabled) {
    results_ = run_supervised(cells_, jobs_, isolation_, cache);
    return results_;
  }
  results_.resize(cells_.size());
  // done[] lets an interrupted run (stop_requested) distinguish "never
  // dispatched" from "completed": run_tasks drops queued tasks on stop.
  std::vector<std::atomic<bool>> done(cells_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    tasks.push_back([this, i, cache, &done] {
      results_[i] = run_cell(cells_[i], cache);
      done[i].store(true, std::memory_order_release);
    });
  }
  run_tasks(jobs_, tasks);
  if (stop_requested()) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (!done[i].load(std::memory_order_acquire)) {
        results_[i].ok = false;
        results_[i].error = "interrupted: stopped before dispatch";
      }
    }
  }
  return results_;
}

}  // namespace netcache::sweep
