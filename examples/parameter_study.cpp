// Example: the paper's Section 5.4 parameter-space methodology on one
// application — sweep the memory block read latency and watch the NetCache
// advantage grow as the processor/memory gap widens. The twelve
// (latency, system) cells fan out across the sweep worker pool; the printed
// table is identical whatever the worker count.
//
//   ./example_parameter_study [app] [scale] [jobs]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/machine.hpp"
#include "src/sweep/sweep.hpp"

using namespace netcache;

int main(int argc, char** argv) {
  std::string app = argc > 1 ? argv[1] : "mg";
  double scale = argc > 2 ? std::atof(argv[2]) : 1.0;
  int jobs = argc > 3 ? std::atoi(argv[3]) : 0;  // 0 = default_jobs()

  const std::vector<Cycles> latencies = {44, 60, 76, 92, 108, 140};

  sweep::SweepDriver driver(jobs);
  std::vector<std::size_t> nc_cells, ln_cells;
  for (Cycles mem : latencies) {
    for (SystemKind kind : {SystemKind::kNetCache, SystemKind::kLambdaNet}) {
      sweep::Cell cell;
      cell.app = app;
      cell.system = kind;
      cell.scale = scale;
      cell.tweak = [mem](MachineConfig& config) {
        config.mem_block_read_cycles = mem;
      };
      std::size_t index = driver.submit(std::move(cell));
      (kind == SystemKind::kNetCache ? nc_cells : ln_cells).push_back(index);
    }
  }
  const auto& results = driver.run();
  int rc = 0;
  auto cell_ok = [&](std::size_t i) {
    if (!results[i].ok) {
      std::fprintf(stderr, "%s: %s\n", driver.cell(i).label().c_str(),
                   results[i].error.c_str());
      rc = 1;
      return false;
    }
    if (!results[i].summary.verified) {
      std::fprintf(stderr, "%s: verification failed\n",
                   driver.cell(i).label().c_str());
      rc = 1;
      return false;
    }
    return true;
  };

  std::printf("memory-latency sweep for %s (16 nodes, %d worker(s))\n\n",
              app.c_str(), driver.jobs());
  std::printf("%8s %12s %12s %14s\n", "mem(pc)", "NetCache", "LambdaNet",
              "NC advantage");
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    if (!cell_ok(nc_cells[i]) || !cell_ok(ln_cells[i])) {
      std::printf("%8lld %12s %12s %14s\n",
                  static_cast<long long>(latencies[i]), "failed", "failed",
                  "-");
      continue;
    }
    Cycles nc = results[nc_cells[i]].summary.run_time;
    Cycles ln = results[ln_cells[i]].summary.run_time;
    std::printf("%8lld %12lld %12lld %13.1f%%\n",
                static_cast<long long>(latencies[i]),
                static_cast<long long>(nc), static_cast<long long>(ln),
                100.0 * (static_cast<double>(ln) / nc - 1.0));
  }
  std::printf(
      "\nThe advantage should grow with the latency (paper Figure 15).\n");
  return rc;
}
