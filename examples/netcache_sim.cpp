// netcache_sim — command-line driver for the simulator. Exposes every knob
// the paper's parameter-space study varies, plus the repository extensions.
// --app and --system take comma lists (or "all"); multi-cell invocations fan
// out across the sweep worker pool (--jobs=N, default the hardware thread
// count).
//
//   ./example_netcache_sim --app=gauss --system=netcache --nodes=16
//   ./example_netcache_sim --app=radix --system=dmon-i --l2-kb=64 --report
//   ./example_netcache_sim --app=all --system=netcache,lambdanet --jobs=8
//   ./example_netcache_sim --trace=foo.trace --system=lambdanet
//   ./example_netcache_sim --help
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/synthetic.hpp"
#include "src/apps/trace.hpp"
#include "src/apps/workload.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"
#include "src/core/report.hpp"
#include "src/faults/faults.hpp"
#include "src/sweep/flags.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/supervisor.hpp"
#include "src/sweep/sweep.hpp"

using namespace netcache;

namespace {

struct Options {
  std::string app = "sor";
  std::string trace_path;
  /// The trace behind --trace, read once in main(); each cell replays a copy.
  std::shared_ptr<const apps::TraceWorkload> trace;
  std::string synthetic;
  std::string system = "netcache";
  int nodes = 16;
  double scale = 1.0;
  bool paper_size = false;
  int l2_kb = 16;
  int channels = 128;
  double gbps = 10.0;
  Cycles mem = 76;
  RingReplacement policy = RingReplacement::kRandom;
  RingAssociativity assoc = RingAssociativity::kFullyAssociative;
  bool prefetch = false;
  bool ring_only_reads = false;
  bool report = false;
  bool verify = false;
  std::string faults;
  std::string fault_apps;  // empty = every cell gets the fault spec
  bool fault_seed_set = false;
  std::uint64_t fault_seed = 0;
  bool fault_recovery = true;
  /// The shared sweep surface (--jobs, --cache, --isolate, --cell-timeout,
  /// --forensics) — parsed and validated by src/sweep/flags.cpp,
  /// identically to reproduce.
  sweep::SweepFlags sweep;
};

void usage() {
  std::printf(
      "netcache_sim — NetCache multiprocessor simulator\n\n"
      "  --app=NAMES        comma list or 'all'; one of:");
  for (const auto& n : apps::workload_names()) std::printf(" %s", n.c_str());
  std::printf(
      "\n"
      "  --synthetic=PAT    uniform | hot | prodcons | stream, instead of\n"
      "                     --app (one cell per system, synthetic:PAT)\n"
      "  --trace=FILE       replay a memory-reference trace instead of --app\n"
      "                     (one cell per system, trace:<file name>)\n"
      "  --system=S         comma list or 'all'; netcache | netcache-noring"
      " | lambdanet | dmon-u | dmon-i\n"
      "  --nodes=N          machine width, 1..256 (default 16)\n"
      "  --scale=X          workload scale factor (default 1.0)\n"
      "  --paper-size       use the paper's Table 4 inputs\n"
      "  --l2-kb=K          2nd-level cache size (default 16)\n"
      "  --channels=Q       ring cache channels (default 128; 4 blocks each)\n"
      "  --gbps=R           transmission rate (default 10)\n"
      "  --mem=C            memory block read pcycles (default 76)\n"
      "  --policy=P         random | lfu | lru | fifo\n"
      "  --assoc=A          full | direct\n"
      "  --prefetch         enable sequential prefetch\n"
      "  --ring-only-reads  disable the parallel star-path read start\n"
      "  --report           print the full per-node report (single cell)\n"
      "  --verify           runtime coherence oracle: shadow-memory model\n"
      "                     checking every cached read against the latest\n"
      "                     committed store (also: NETCACHE_VERIFY=1)\n"
      "  --faults=SPEC      deterministic fault injection; comma list of\n"
      "                     kind:count[@duration] with kinds drop-update |\n"
      "                     corrupt-update | ring-slot | drop-invalidate |\n"
      "                     crash | hang | outage | stall\n"
      "                     (e.g. drop-update:2,outage:1@500); crash/hang\n"
      "                     take down the host process and need --isolate\n"
      "  --fault-apps=LIST  apply --faults only to cells of these apps\n"
      "                     (mixed healthy/poisoned grids; default: all)\n"
      "  --fault-seed=N     seed deriving the fault schedule (default fixed;\n"
      "                     same seed => same schedule at any --jobs)\n"
      "  --no-fault-recovery  leave injected faults unrepaired; requires\n"
      "                     --verify so every fault is caught, never silent\n"
      "%s",
      sweep::sweep_flags_help());
}

bool parse_flag(const char* arg, const char* name, std::string* out) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Strict numeric parsing: "--nodes=abc" or "--nodes=" is a ConfigError, not
// a silent atoi() zero that validate() may or may not catch later.
long long parse_int(const char* key, const std::string& v) {
  char* end = nullptr;
  long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end == nullptr || *end != '\0') {
    throw ConfigError(key, v, "expected an integer");
  }
  return n;
}

// Range-checked before narrowing: "--nodes=4294967312" must not wrap to 16.
int parse_int_up_to(const char* key, const std::string& v, long long max) {
  const long long n = parse_int(key, v);
  if (n < INT_MIN || n > max) throw ConfigError(key, v, "out of range");
  return static_cast<int>(n);
}

double parse_double(const char* key, const std::string& v) {
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (v.empty() || end == nullptr || *end != '\0') {
    throw ConfigError(key, v, "expected a number");
  }
  return d;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0) return false;
    // The shared sweep surface first (--jobs, --cache, --isolate, ...).
    std::string sweep_error;
    switch (sweep::parse_sweep_flag(a, &opt->sweep, &sweep_error)) {
      case sweep::FlagParse::kConsumed:
        continue;
      case sweep::FlagParse::kBadValue:
        std::fprintf(stderr, "%s\n", sweep_error.c_str());
        return false;
      case sweep::FlagParse::kNotSweepFlag:
        break;
    }
    if (std::strcmp(a, "--paper-size") == 0) { opt->paper_size = true; continue; }
    if (std::strcmp(a, "--prefetch") == 0) { opt->prefetch = true; continue; }
    if (std::strcmp(a, "--ring-only-reads") == 0) { opt->ring_only_reads = true; continue; }
    if (std::strcmp(a, "--report") == 0) { opt->report = true; continue; }
    if (std::strcmp(a, "--verify") == 0) { opt->verify = true; continue; }
    if (std::strcmp(a, "--no-fault-recovery") == 0) { opt->fault_recovery = false; continue; }
    if (parse_flag(a, "--fault-apps", &v)) { opt->fault_apps = v; continue; }
    if (parse_flag(a, "--faults", &v)) { opt->faults = v; continue; }
    if (parse_flag(a, "--fault-seed", &v)) {
      opt->fault_seed = static_cast<std::uint64_t>(parse_int("fault-seed", v));
      opt->fault_seed_set = true;
      continue;
    }
    if (parse_flag(a, "--app", &v)) { opt->app = v; continue; }
    if (parse_flag(a, "--trace", &v)) { opt->trace_path = v; continue; }
    if (parse_flag(a, "--synthetic", &v)) { opt->synthetic = v; continue; }
    if (parse_flag(a, "--system", &v)) { opt->system = v; continue; }
    if (parse_flag(a, "--nodes", &v)) { opt->nodes = parse_int_up_to("nodes", v, INT_MAX); continue; }
    // apps::make_workload range-checks the scale.
    if (parse_flag(a, "--scale", &v)) { opt->scale = parse_double("scale", v); continue; }
    // --l2-kb is multiplied by 1024 into an int byte count.
    if (parse_flag(a, "--l2-kb", &v)) { opt->l2_kb = parse_int_up_to("l2-kb", v, INT_MAX / 1024); continue; }
    if (parse_flag(a, "--channels", &v)) { opt->channels = parse_int_up_to("channels", v, INT_MAX); continue; }
    if (parse_flag(a, "--gbps", &v)) { opt->gbps = parse_double("gbps", v); continue; }
    if (parse_flag(a, "--mem", &v)) { opt->mem = parse_int("mem", v); continue; }
    if (parse_flag(a, "--policy", &v)) {
      if (v == "random") opt->policy = RingReplacement::kRandom;
      else if (v == "lfu") opt->policy = RingReplacement::kLfu;
      else if (v == "lru") opt->policy = RingReplacement::kLru;
      else if (v == "fifo") opt->policy = RingReplacement::kFifo;
      else { std::fprintf(stderr, "unknown policy '%s'\n", v.c_str()); return false; }
      continue;
    }
    if (parse_flag(a, "--assoc", &v)) {
      if (v == "full") opt->assoc = RingAssociativity::kFullyAssociative;
      else if (v == "direct") opt->assoc = RingAssociativity::kDirectMapped;
      else { std::fprintf(stderr, "unknown associativity '%s'\n", v.c_str()); return false; }
      continue;
    }
    std::fprintf(stderr, "unknown argument '%s'\n", a);
    return false;
  }
  return true;
}

std::vector<std::string> split_list(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    std::size_t comma = v.find(',', start);
    if (comma == std::string::npos) comma = v.size();
    if (comma > start) out.push_back(v.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_system(const std::string& v, SystemKind* out) {
  if (v == "netcache") *out = SystemKind::kNetCache;
  else if (v == "netcache-noring") *out = SystemKind::kNetCacheNoRing;
  else if (v == "lambdanet") *out = SystemKind::kLambdaNet;
  else if (v == "dmon-u") *out = SystemKind::kDmonUpdate;
  else if (v == "dmon-i") *out = SystemKind::kDmonInvalidate;
  else return false;
  return true;
}

std::vector<SystemKind> system_list(const std::string& v) {
  if (v == "all") {
    return {SystemKind::kNetCache, SystemKind::kNetCacheNoRing,
            SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
            SystemKind::kDmonInvalidate};
  }
  std::vector<SystemKind> out;
  for (const auto& s : split_list(v)) {
    SystemKind kind;
    if (!parse_system(s, &kind)) {
      throw ConfigError("system", s, "unknown system");
    }
    out.push_back(kind);
  }
  return out;
}

// True when `app` is subject to --faults: every app unless --fault-apps
// narrows the blast radius to a named subset (mixed healthy/poisoned grids
// are how the supervisor's partial-completion behavior is exercised).
bool app_faulted(const Options& opt, const std::string& app) {
  if (opt.fault_apps.empty()) return true;
  for (const auto& name : split_list(opt.fault_apps)) {
    if (name == app) return true;
  }
  return false;
}

void apply_knobs(const Options& opt, MachineConfig* config,
                 const std::string& app) {
  config->nodes = opt.nodes;
  config->l2.size_bytes = opt.l2_kb * 1024;
  config->ring.channels = opt.channels;
  config->gbit_per_s = opt.gbps;
  config->mem_block_read_cycles = opt.mem;
  config->ring.replacement = opt.policy;
  config->ring.associativity = opt.assoc;
  config->sequential_prefetch = opt.prefetch;
  config->reads_start_on_star = !opt.ring_only_reads;
  config->verify = config->verify || opt.verify;
  config->faults.spec = app_faulted(opt, app) ? opt.faults : "";
  if (opt.fault_seed_set) config->faults.seed = opt.fault_seed;
  config->faults.recovery = opt.fault_recovery;
}

std::unique_ptr<apps::Workload> build_workload(const Options& opt,
                                               const std::string& app) {
  if (opt.trace) return std::make_unique<apps::TraceWorkload>(*opt.trace);
  if (!opt.synthetic.empty()) {
    apps::SyntheticSpec spec;
    spec.pattern = opt.synthetic;
    return apps::make_synthetic(spec);
  }
  apps::WorkloadParams params;
  params.scale = opt.scale;
  params.paper_size = opt.paper_size;
  return apps::make_workload(app, params);
}

// The workloads a run names, one per sweep row: the --app list, or for
// --trace / --synthetic (which replace --app) one label naming the trace
// file or the pattern, so a failure line and a forensics file name what ran.
std::vector<std::string> workload_labels(const Options& opt) {
  if (!opt.trace_path.empty()) {
    return {"trace:" +
            std::filesystem::path(opt.trace_path).filename().string()};
  }
  if (!opt.synthetic.empty()) return {"synthetic:" + opt.synthetic};
  return opt.app == "all" ? apps::workload_names() : split_list(opt.app);
}

// The original single-machine path: build, run, print (optionally the full
// per-node report, which needs the live machine's stats).
int run_report(const Options& opt, const std::string& app, SystemKind kind) {
  // The per-node report reads the live machine's stats, which the result
  // cache does not (and should not) memoize: always simulate, in-process.
  MachineConfig config;
  config.system = kind;
  apply_knobs(opt, &config, app);
  core::Machine machine(config);
  auto workload = build_workload(opt, app);
  auto summary = machine.run(*workload);
  std::printf("%s", core::detailed_report(config, machine.stats(),
                                          summary).c_str());
  return summary.verified ? 0 : 1;
}

// Every (app, system) pair becomes one sweep cell — including the
// single-cell case, so --isolate and the result cache apply uniformly. A
// trace or synthetic run has one "app", its label (workload_labels).
// Results print in submission order, so the output is independent of --jobs.
int run_sweep(const Options& opt, const std::vector<std::string>& app_names,
              const std::vector<SystemKind>& kinds) {
  sweep::SweepDriver driver(opt.sweep.jobs);
  driver.set_isolation(opt.sweep.isolation);
  const bool single = app_names.size() * kinds.size() == 1;
  for (const auto& app : app_names) {
    for (SystemKind kind : kinds) {
      sweep::Cell cell;
      cell.app = app;
      cell.system = kind;
      cell.nodes = opt.nodes;
      cell.scale = opt.scale;
      cell.paper_size = opt.paper_size;
      cell.tweak = [opt, app](MachineConfig& config) {
        apply_knobs(opt, &config, app);
      };
      if (opt.trace || !opt.synthetic.empty()) {
        Options o = opt;
        cell.make_workload = [o, app] { return build_workload(o, app); };
      }
      driver.submit(std::move(cell));
    }
  }
  // Graceful SIGINT/SIGTERM: stop dispatching, reap children, report the
  // partial grid, exit 128+signal. Completed cells are already cached.
  sweep::install_stop_handlers();
  const auto& results = driver.run();
  sweep::remove_stop_handlers();
  int rc = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string label = driver.cell(i).label();
    if (!results[i].ok) {
      std::fprintf(stderr, "%s: FAILED: %s\n", label.c_str(),
                   results[i].error.c_str());
      rc = 1;
      continue;
    }
    ++completed;
    if (single) {
      std::printf("%s\n", core::format_summary(results[i].summary).c_str());
    } else {
      std::printf("%-24s %s\n", label.c_str(),
                  core::format_summary(results[i].summary).c_str());
    }
    if (!results[i].summary.verified) rc = 1;
  }
  const std::string cache_line = sweep::format_cache_stats();
  if (!cache_line.empty()) std::printf("%s", cache_line.c_str());
  if (sweep::stop_requested()) {
    std::fprintf(stderr,
                 "netcache_sim: interrupted by signal %d — %zu/%zu cells "
                 "completed (completed results are cached; re-run to "
                 "resume)\n",
                 sweep::stop_signal(), completed, results.size());
    return 128 + sweep::stop_signal();
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    usage();
    return 1;
  }

  sweep::apply_cache_flags(opt.sweep);

  // Process-level faults are rejected outside the supervised mode the same
  // way --no-fault-recovery is rejected without --verify: there must be no
  // configuration whose *expected* behavior is an undiagnosed dead binary.
  if (!opt.sweep.isolation.enabled &&
      faults::spec_has_process_faults(opt.faults)) {
    throw ConfigError("faults", opt.faults,
                      "crash/hang faults take down the host process; run "
                      "them under --isolate so the supervisor contains the "
                      "failure");
  }

  std::vector<std::string> app_names = workload_labels(opt);
  std::vector<SystemKind> kinds = system_list(opt.system);
  if (app_names.empty() || kinds.empty()) {
    throw ConfigError("app/system", opt.app + "/" + opt.system,
                      "expected at least one value");
  }
  // An unknown --app or --synthetic name, an unreadable trace or a
  // malformed trace line throws ConfigError from the workload factory:
  // reject it before any cell runs. Constructing a workload only sizes the
  // problem; the trace is read here once.
  if (!opt.trace_path.empty()) {
    opt.trace = apps::TraceWorkload::from_file(opt.trace_path);
  } else {
    for (const auto& app : app_names) (void)build_workload(opt, app);
  }

  if (opt.report) {
    if (app_names.size() * kinds.size() != 1) {
      std::fprintf(stderr,
                   "netcache_sim: --report needs a single app/system cell\n");
      return 1;
    }
    if (opt.sweep.isolation.enabled) {
      std::fprintf(stderr,
                   "netcache_sim: --report reads the live in-process "
                   "machine and cannot cross the --isolate boundary\n");
      return 1;
    }
    return run_report(opt, app_names[0], kinds[0]);
  }
  return run_sweep(opt, app_names, kinds);
} catch (const netcache::SimError& e) {
  // Bad configuration or a diagnosed simulation failure (deadlock/watchdog):
  // structured message, nonzero exit, no core dump.
  std::fprintf(stderr, "netcache_sim: %s\n", e.what());
  return 1;
}
