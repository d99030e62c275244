// Quickstart: simulate one application on the four systems the paper
// compares, and print run times + shared-cache behaviour.
//
//   ./example_quickstart [app] [nodes]
//
// app defaults to "sor", nodes to 16.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/apps/workload.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

using namespace netcache;

int main(int argc, char** argv) try {
  std::string app = argc > 1 ? argv[1] : "sor";
  int nodes = 16;
  if (argc > 2) {
    // Strict: "abc" or "16x" is a config error, not a silent atoi() value.
    const char* end = argv[2] + std::strlen(argv[2]);
    const auto [ptr, ec] = std::from_chars(argv[2], end, nodes);
    if (ec != std::errc() || ptr != end) {
      throw ConfigError("nodes", argv[2], "expected an integer");
    }
  }

  const SystemKind kinds[] = {SystemKind::kNetCache, SystemKind::kLambdaNet,
                              SystemKind::kDmonUpdate,
                              SystemKind::kDmonInvalidate};
  std::printf("app=%s nodes=%d\n", app.c_str(), nodes);
  for (SystemKind kind : kinds) {
    MachineConfig config;
    config.nodes = nodes;
    config.system = kind;
    core::Machine machine(config);
    auto workload = apps::make_workload(app);
    core::RunSummary s = machine.run(*workload);
    std::printf("%s\n", core::format_summary(s).c_str());
    std::printf("  %s\n", core::format_throughput(s).c_str());
    if (!s.verified) return 1;
  }
  return 0;
} catch (const SimError& e) {
  // A bad app name or node count: structured message, no core dump.
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 1;
}
