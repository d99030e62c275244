#include "bench/bench_common.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "src/apps/workload.hpp"
#include "src/core/machine.hpp"
#include "src/sweep/result_cache.hpp"

namespace netcache::bench {

core::RunSummary simulate(const sweep::Cell& cell) {
  sweep::CellResult r = sweep::run_cell(cell);
  if (!r.ok || !r.summary.verified) {
    std::fprintf(stderr, "FATAL: %s %s%s\n", cell.label().c_str(),
                 r.ok ? "failed verification" : "failed: ", r.error.c_str());
    std::abort();
  }
  return r.summary;
}

std::vector<std::size_t> submit_distinct(const std::vector<sweep::Cell>& cells,
                                         sweep::SweepDriver& driver) {
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::size_t> out;
  out.reserve(cells.size());
  for (const sweep::Cell& cell : cells) {
    if (!sweep::ResultCache::cacheable(cell)) {
      out.push_back(driver.submit(cell));
      continue;
    }
    auto [it, added] =
        index.try_emplace(sweep::ResultCache::key_description(cell, ""), 0);
    if (added) it->second = driver.submit(cell);
    out.push_back(it->second);
  }
  return out;
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::set(const std::string& row, const std::string& column,
                double value) {
  if (cells_.find(row) == cells_.end()) row_order_.push_back(row);
  cells_[row][column] = value;
}

void Table::print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  std::printf("%-12s", "");
  for (const auto& c : columns_) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (const auto& row : row_order_) {
    std::printf("%-12s", row.c_str());
    const auto& vals = cells_.at(row);
    for (const auto& c : columns_) {
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
  std::string out = "row";
  for (const auto& c : columns_) out += "," + c;
  out += "\n";
  char buf[64];
  for (const auto& row : row_order_) {
    out += row;
    const auto& vals = cells_.at(row);
    for (const auto& c : columns_) {
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
  for (char c : title_) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      name += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!name.empty() && name.back() != '_') {
      name += '_';
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
