#include "bench/bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sweep/flags.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/supervisor.hpp"

namespace netcache::bench {

namespace {

// Engine totals across every simulation in this binary, reported after the
// tables so each bench run surfaces event-core throughput. Guarded: sweep
// workers may finish cells concurrently.
std::mutex g_totals_mutex;
std::uint64_t g_total_events = 0;
double g_total_engine_seconds = 0.0;

void add_engine_totals(const core::RunSummary& s) {
  std::lock_guard<std::mutex> lock(g_totals_mutex);
  g_total_events += s.events;
  g_total_engine_seconds += s.wall_seconds;
}

std::vector<std::function<void()>>& planners() {
  static std::vector<std::function<void()>> p;
  return p;
}

// The binary-wide sweep: planners submit into it, bench_main runs it, and
// CellRef::summary() reads it. Null until bench_main builds it.
sweep::SweepDriver* g_driver = nullptr;

int g_jobs = 0;  // 0 = resolve via sweep::default_jobs()

sweep::Cell to_cell(const std::string& app, SystemKind system,
                    const SimOptions& opts) {
  sweep::Cell cell;
  cell.app = app;
  cell.system = system;
  cell.nodes = opts.nodes;
  cell.scale = opts.scale;
  cell.paper_size = opts.paper_size;
  cell.tweak = opts.tweak;
  cell.limits = opts.limits;
  cell.make_workload = opts.make_workload;
  return cell;
}

[[noreturn]] void die_cell(const sweep::Cell& cell, const char* problem,
                           const std::string& detail) {
  std::fprintf(stderr, "FATAL: %s %s%s%s\n", cell.label().c_str(), problem,
               detail.empty() ? "" : ": ", detail.c_str());
  std::abort();
}

}  // namespace

core::RunSummary simulate(const std::string& app, SystemKind system,
                          const SimOptions& opts) {
  sweep::Cell cell = to_cell(app, system, opts);
  sweep::CellResult r = sweep::run_cell(cell);
  if (!r.ok) die_cell(cell, "failed", r.error);
  if (!r.summary.verified) die_cell(cell, "failed verification", "");
  add_engine_totals(r.summary);
  return r.summary;
}

const core::RunSummary& CellRef::summary() const {
  if (g_driver == nullptr || index_ >= g_driver->size()) {
    std::fprintf(stderr,
                 "FATAL: CellRef::summary() before the sweep has run\n");
    std::abort();
  }
  // A failed cell's summary is default-constructed; folding it into a table
  // would silently record zeros under this cell's row. Fail loudly instead.
  const sweep::CellResult& r = g_driver->result(index_);
  if (!r.ok) die_cell(g_driver->cell(index_), "failed", r.error);
  return r.summary;
}

bool CellRef::ok() const {
  if (g_driver == nullptr || index_ >= g_driver->size()) return false;
  const sweep::CellResult& r = g_driver->result(index_);
  return r.ok && r.summary.verified;
}

const std::string& CellRef::error() const {
  static const std::string empty;
  if (g_driver == nullptr || index_ >= g_driver->size()) return empty;
  return g_driver->result(index_).error;
}

CellRef submit(const std::string& app, SystemKind system,
               const SimOptions& opts) {
  if (g_driver == nullptr) {
    std::fprintf(stderr,
                 "FATAL: submit() outside a SweepPlan (bench_main owns the "
                 "driver)\n");
    std::abort();
  }
  return CellRef(g_driver->submit(to_cell(app, system, opts)));
}

SweepPlan::SweepPlan(std::function<void()> plan) {
  planners().push_back(std::move(plan));
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::set(const std::string& row, const std::string& column,
                double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cells_.find(row) == cells_.end()) row_order_.push_back(row);
  cells_[row][column] = value;
}

void Table::set_failed(const std::string& row, const std::string& column) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cells_.find(row) == cells_.end()) row_order_.push_back(row);
  cells_[row];  // reserve the row even if no column ever gets a value
  failed_[row][column] = true;
}

void Table::print() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::printf("\n== %s ==\n", title_.c_str());
  std::printf("%-12s", "");
  for (const auto& c : columns_) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (const auto& row : row_order_) {
    std::printf("%-12s", row.c_str());
    const auto& vals = cells_.at(row);
    auto failed_row = failed_.find(row);
    for (const auto& c : columns_) {
      if (failed_row != failed_.end() && failed_row->second.count(c) > 0) {
        std::printf(" %12s", "failed");
        continue;
      }
      auto it = vals.find(c);
      if (it == vals.end()) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.3f", it->second);
      }
    }
    std::printf("\n");
  }
}

std::string Table::to_csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "row";
  for (const auto& c : columns_) out += "," + c;
  out += "\n";
  char buf[64];
  for (const auto& row : row_order_) {
    out += row;
    const auto& vals = cells_.at(row);
    auto failed_row = failed_.find(row);
    for (const auto& c : columns_) {
      if (failed_row != failed_.end() && failed_row->second.count(c) > 0) {
        out += ",failed";
        continue;
      }
      auto it = vals.find(c);
      if (it == vals.end()) {
        out += ",";
      } else {
        std::snprintf(buf, sizeof(buf), ",%.6g", it->second);
        out += buf;
      }
    }
    out += "\n";
  }
  return out;
}

void Table::write_csv_to(const std::string& dir) const {
  std::string name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (char c : title_) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        name += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!name.empty() && name.back() != '_') {
        name += '_';
      }
    }
  }
  std::string path = dir + "/" + name + ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::string csv = to_csv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

int bench_jobs() { return g_jobs > 0 ? g_jobs : sweep::default_jobs(); }

int bench_main(int argc, char** argv,
               const std::vector<const Table*>& tables) {
  // Strip the shared sweep flags before google-benchmark sees (and rejects)
  // them; parsing and validation live in src/sweep/flags.cpp, shared with
  // netcache_sim.
  int out = 1;
  sweep::SweepFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (sweep::parse_sweep_flag(argv[i], &flags, &error)) {
      case sweep::FlagParse::kConsumed:
        break;
      case sweep::FlagParse::kBadValue:
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      case sweep::FlagParse::kNotSweepFlag:
        argv[out++] = argv[i];
        break;
    }
  }
  argc = out;
  g_jobs = flags.jobs;
  const sweep::IsolationOptions iso = flags.isolation;
  sweep::apply_cache_flags(flags);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  // Fan the declared grid out across the pool before the benchmark bodies
  // (which consume the finished summaries) run.
  sweep::SweepDriver driver(bench_jobs());
  driver.set_isolation(iso);
  g_driver = &driver;
  for (const auto& plan : planners()) plan();
  if (driver.size() > 0) {
    auto t0 = std::chrono::steady_clock::now();
    sweep::install_stop_handlers();
    const auto& results = driver.run();
    sweep::remove_stop_handlers();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    bool failed = false;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) {
        // Under isolation a failed cell is quarantined, not fatal: print its
        // diagnosis (incl. harvested forensics) and let the grid report.
        std::fprintf(stderr, "%s: cell %s failed: %s\n",
                     iso.enabled ? "FAILED" : "FATAL",
                     driver.cell(i).label().c_str(),
                     results[i].error.c_str());
        failed = true;
      } else if (!results[i].summary.verified) {
        std::fprintf(stderr, "%s: cell %s failed verification\n",
                     iso.enabled ? "FAILED" : "FATAL",
                     driver.cell(i).label().c_str());
        failed = true;
      } else {
        ++completed;
        add_engine_totals(results[i].summary);
      }
    }
    std::printf("sweep: %zu cells on %d worker(s) in %.2f s\n", driver.size(),
                driver.jobs(), secs);
    const std::string cache_line = sweep::format_cache_stats();
    if (!cache_line.empty()) std::printf("%s", cache_line.c_str());
    if (sweep::stop_requested()) {
      std::fprintf(stderr,
                   "sweep interrupted by signal %d — %zu/%zu cells "
                   "completed (completed results are cached; re-run to "
                   "resume)\n",
                   sweep::stop_signal(), completed, results.size());
      return 128 + sweep::stop_signal();
    }
    if (failed) {
      if (iso.enabled) {
        std::fprintf(stderr,
                     "sweep: %zu/%zu cells completed; failed cells were "
                     "quarantined (completed results are cached; re-run "
                     "re-executes only the failures). Skipping benchmark "
                     "bodies.\n",
                     completed, results.size());
      }
      return 1;
    }
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const Table* t : tables) t->print();
  {
    std::lock_guard<std::mutex> lock(g_totals_mutex);
    if (g_total_engine_seconds > 0) {
      std::printf(
          "\nengine: %llu events in %.3f s  (%.3g events/s)\n",
          static_cast<unsigned long long>(g_total_events),
          g_total_engine_seconds,
          static_cast<double>(g_total_events) / g_total_engine_seconds);
    }
  }
  if (const char* dir = std::getenv("NETCACHE_BENCH_CSV_DIR")) {
    for (const Table* t : tables) t->write_csv_to(dir);
  }
  g_driver = nullptr;
  return 0;
}

const std::vector<std::string>& all_apps() { return apps::workload_names(); }

namespace {

/// Workload whose per-node body is supplied by the caller. A probe allocates
/// its shared region before the run, as a workload's setup would: the
/// coherence oracle sizes its table to the footprint once setup is done.
class Script : public apps::Workload {
 public:
  std::function<sim::Task<void>(core::Machine&, core::Cpu&, int)> body;
  core::Machine* machine = nullptr;
  const char* name() const override { return "probe"; }
  void setup(core::Machine& m) override { machine = &m; }
  sim::Task<void> run(core::Cpu& cpu, int tid) override {
    if (body) co_await body(*machine, cpu, tid);
  }
  bool verify() override { return true; }
};

}  // namespace

double mean_cold_read_latency(SystemKind kind) {
  MachineConfig cfg;
  cfg.system = kind;
  core::Machine m(cfg);
  Script s;
  double total = 0;
  int measured = 0;
  const int count = 128;
  // Skipping the reader's own blocks takes the loop past `count` strides.
  const Addr base = m.address_space().alloc_shared(
      static_cast<std::size_t>(2 * count) * 257 * 64);
  s.body = [&](core::Machine&, core::Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    for (int i = 0; measured < count; ++i) {
      Addr b = static_cast<Addr>(257) * i + 1;
      if (b % 16 == 0) continue;
      Cycles t0 = cpu.now();
      co_await cpu.read(base + b * 64);
      total += static_cast<double>(cpu.now() - t0);
      ++measured;
      co_await cpu.compute(1 + (i * 13) % 23);
    }
  };
  m.run(s);
  return total / count;
}

double mean_ring_hit_latency() {
  MachineConfig cfg;
  core::Machine m(cfg);
  Script s;
  double total = 0;
  int measured = 0;
  const int count = 128;
  core::Barrier* bar = nullptr;
  const Addr base = m.address_space().alloc_shared(
      static_cast<std::size_t>(2 * count) * 17 * 64);
  s.body = [&](core::Machine& mach, core::Cpu& cpu,
               int tid) -> sim::Task<void> {
    if (!bar) bar = &mach.make_barrier(mach.nodes());
    std::vector<Addr> addrs;
    for (int i = 0; addrs.size() < static_cast<std::size_t>(count); ++i) {
      Addr b = static_cast<Addr>(17) * i + 2;
      if (b % 16 == 0 || b % 16 == 1) continue;
      addrs.push_back(base + b * 64);
    }
    if (tid == 1) {
      for (Addr a : addrs) co_await cpu.read(a);  // warm the ring
    }
    co_await bar->wait(cpu);
    if (tid == 0) {
      int i = 0;
      for (Addr a : addrs) {
        Cycles t0 = cpu.now();
        co_await cpu.read(a);
        total += static_cast<double>(cpu.now() - t0);
        ++measured;
        co_await cpu.compute(1 + (i++ * 13) % 23);
      }
    }
  };
  m.run(s);
  return total / measured;
}

double mean_update_latency(SystemKind kind) {
  MachineConfig cfg;
  cfg.system = kind;
  core::Machine m(cfg);
  Script s;
  double total = 0;
  const int count = 64;
  const Addr base = m.address_space().alloc_shared(
      static_cast<std::size_t>(2 * count) * 257 * 64);
  s.body = [&](core::Machine&, core::Cpu& cpu, int tid) -> sim::Task<void> {
    if (tid != 0) co_return;
    int measured = 0;
    for (int i = 0; measured < count; ++i) {
      Addr b = static_cast<Addr>(257) * i + 1;
      if (b % 16 == 0) continue;
      Addr a = base + b * 64;
      co_await cpu.read(a);  // write hit, as Table 3 assumes
      co_await cpu.compute(2 + (i * 7) % 19);
      Cycles t0 = cpu.now();
      co_await cpu.write(a, 32);
      co_await cpu.node().fence();
      total += static_cast<double>(cpu.now() - t0);
      ++measured;
      co_await cpu.compute(1 + (i * 13) % 23);
    }
  };
  m.run(s);
  return total / count - 1.0;
}

}  // namespace netcache::bench
