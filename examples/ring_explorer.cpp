// Example: exploring shared-cache organizations for one application —
// size (channel count), channel associativity and replacement policy —
// the design space of the paper's Section 5.3.
//
//   ./example_ring_explorer [app]
#include <cstdio>
#include <string>

#include "src/apps/workload.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

using namespace netcache;

namespace {

core::RunSummary run_once(const std::string& app, const RingConfig& ring) {
  MachineConfig config;
  config.ring = ring;
  core::Machine machine(config);
  auto workload = apps::make_workload(app);
  auto summary = machine.run(*workload);
  if (!summary.verified) {
    std::fprintf(stderr, "verification failed\n");
    std::exit(1);
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string app = argc > 1 ? argv[1] : "ocean";
  std::printf("shared-cache design space for %s (16 nodes)\n\n", app.c_str());

  std::printf("-- size sweep (fully associative, random replacement) --\n");
  for (int channels : {64, 128, 256, 512}) {
    RingConfig ring;
    ring.channels = channels;
    auto s = run_once(app, ring);
    std::printf("  %3d channels (%2d KB): hit %5.1f%%  time %lld\n", channels,
                ring.capacity_bytes() / 1024, 100.0 * s.shared_cache_hit_rate,
                static_cast<long long>(s.run_time));
  }

  std::printf("\n-- associativity (32 KB) --\n");
  for (RingAssociativity assoc : {RingAssociativity::kFullyAssociative,
                                  RingAssociativity::kDirectMapped}) {
    RingConfig ring;
    ring.associativity = assoc;
    auto s = run_once(app, ring);
    std::printf("  %-7s: hit %5.1f%%  time %lld\n", to_string(assoc),
                100.0 * s.shared_cache_hit_rate,
                static_cast<long long>(s.run_time));
  }

  std::printf("\n-- replacement policy (32 KB) --\n");
  for (RingReplacement policy :
       {RingReplacement::kRandom, RingReplacement::kLfu,
        RingReplacement::kLru, RingReplacement::kFifo}) {
    RingConfig ring;
    ring.replacement = policy;
    auto s = run_once(app, ring);
    std::printf("  %-7s: hit %5.1f%%  time %lld\n", to_string(policy),
                100.0 * s.shared_cache_hit_rate,
                static_cast<long long>(s.run_time));
  }
  return 0;
} catch (const SimError& e) {
  // A bad app name: structured message, no core dump.
  std::fprintf(stderr, "ring_explorer: %s\n", e.what());
  return 1;
}
