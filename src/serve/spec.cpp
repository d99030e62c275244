#include "src/serve/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/apps/workload.hpp"
#include "src/common/sim_error.hpp"

namespace netcache::serve {

namespace {

constexpr const char* kSpecMagic = "netcache-grid-spec v1";

void put_kv(std::string* out, const char* key, const std::string& value) {
  *out += key;
  *out += ' ';
  *out += value;
  *out += '\n';
}

void put_u64(std::string* out, const char* key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  put_kv(out, key, buf);
}

void put_i64(std::string* out, const char* key, long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  put_kv(out, key, buf);
}

void put_f64(std::string* out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  put_kv(out, key, buf);
}

const char* policy_name(RingReplacement p) {
  switch (p) {
    case RingReplacement::kRandom: return "random";
    case RingReplacement::kLfu: return "lfu";
    case RingReplacement::kLru: return "lru";
    case RingReplacement::kFifo: return "fifo";
  }
  return "?";
}

bool parse_policy(const std::string& v, RingReplacement* out) {
  if (v == "random") *out = RingReplacement::kRandom;
  else if (v == "lfu") *out = RingReplacement::kLfu;
  else if (v == "lru") *out = RingReplacement::kLru;
  else if (v == "fifo") *out = RingReplacement::kFifo;
  else return false;
  return true;
}

const char* assoc_name(RingAssociativity a) {
  return a == RingAssociativity::kFullyAssociative ? "full" : "direct";
}

bool parse_assoc(const std::string& v, RingAssociativity* out) {
  if (v == "full") *out = RingAssociativity::kFullyAssociative;
  else if (v == "direct") *out = RingAssociativity::kDirectMapped;
  else return false;
  return true;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  char* end = nullptr;
  unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || end == v.c_str() || *end != '\0') return false;
  *out = n;
  return true;
}

bool parse_i64(const std::string& v, long long* out) {
  char* end = nullptr;
  long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end == v.c_str() || *end != '\0') return false;
  *out = n;
  return true;
}

bool parse_f64(const std::string& v, double* out) {
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (v.empty() || end == v.c_str() || *end != '\0') return false;
  *out = d;
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "0") *out = false;
  else if (v == "1") *out = true;
  else return false;
  return true;
}

}  // namespace

std::string serialize_spec(const GridSpec& spec) {
  std::string d = kSpecMagic;
  d += '\n';
  put_kv(&d, "app", spec.app);
  put_kv(&d, "system", spec.system);
  put_i64(&d, "nodes", spec.nodes);
  put_f64(&d, "scale", spec.scale);
  put_u64(&d, "paper_size", spec.paper_size ? 1 : 0);
  put_i64(&d, "l2_kb", spec.l2_kb);
  put_i64(&d, "channels", spec.channels);
  put_f64(&d, "gbps", spec.gbps);
  put_u64(&d, "mem", spec.mem);
  put_kv(&d, "policy", policy_name(spec.policy));
  put_kv(&d, "assoc", assoc_name(spec.assoc));
  put_u64(&d, "prefetch", spec.prefetch ? 1 : 0);
  put_u64(&d, "ring_only_reads", spec.ring_only_reads ? 1 : 0);
  put_u64(&d, "verify", spec.verify ? 1 : 0);
  put_kv(&d, "faults", spec.faults);
  put_kv(&d, "fault_apps", spec.fault_apps);
  put_u64(&d, "fault_seed_set", spec.fault_seed_set ? 1 : 0);
  put_u64(&d, "fault_seed", spec.fault_seed);
  put_u64(&d, "fault_recovery", spec.fault_recovery ? 1 : 0);
  d += "end\n";
  return d;
}

bool parse_spec(const std::string& text, GridSpec* out, std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = "grid spec: " + why;
    return false;
  };
  const std::string magic = std::string(kSpecMagic) + "\n";
  if (text.compare(0, magic.size(), magic) != 0) return fail("bad magic");
  GridSpec spec;
  std::size_t pos = magic.size();
  bool ended = false;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return fail("unterminated line");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == "end") {
      ended = true;
      if (pos != text.size()) return fail("trailing bytes after end");
      break;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || space == 0) {
      return fail("malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, space);
    const std::string v = line.substr(space + 1);
    bool ok = true;
    long long i = 0;
    std::uint64_t u = 0;
    if (key == "app") spec.app = v;
    else if (key == "system") spec.system = v;
    else if (key == "nodes") { ok = parse_i64(v, &i); spec.nodes = static_cast<int>(i); }
    else if (key == "scale") ok = parse_f64(v, &spec.scale);
    else if (key == "paper_size") ok = parse_bool(v, &spec.paper_size);
    else if (key == "l2_kb") { ok = parse_i64(v, &i); spec.l2_kb = static_cast<int>(i); }
    else if (key == "channels") { ok = parse_i64(v, &i); spec.channels = static_cast<int>(i); }
    else if (key == "gbps") ok = parse_f64(v, &spec.gbps);
    else if (key == "mem") { ok = parse_u64(v, &u); spec.mem = u; }
    else if (key == "policy") ok = parse_policy(v, &spec.policy);
    else if (key == "assoc") ok = parse_assoc(v, &spec.assoc);
    else if (key == "prefetch") ok = parse_bool(v, &spec.prefetch);
    else if (key == "ring_only_reads") ok = parse_bool(v, &spec.ring_only_reads);
    else if (key == "verify") ok = parse_bool(v, &spec.verify);
    else if (key == "faults") spec.faults = v;
    else if (key == "fault_apps") spec.fault_apps = v;
    else if (key == "fault_seed_set") ok = parse_bool(v, &spec.fault_seed_set);
    else if (key == "fault_seed") { ok = parse_u64(v, &u); spec.fault_seed = u; }
    else if (key == "fault_recovery") ok = parse_bool(v, &spec.fault_recovery);
    else return fail("unknown field '" + key + "'");
    if (!ok) return fail("bad value for '" + key + "': '" + v + "'");
  }
  if (!ended) return fail("missing end sentinel");
  *out = spec;
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

bool parse_system_kind(const std::string& name, SystemKind* out) {
  if (name == "netcache") *out = SystemKind::kNetCache;
  else if (name == "netcache-noring") *out = SystemKind::kNetCacheNoRing;
  else if (name == "lambdanet") *out = SystemKind::kLambdaNet;
  else if (name == "dmon-u") *out = SystemKind::kDmonUpdate;
  else if (name == "dmon-i") *out = SystemKind::kDmonInvalidate;
  else return false;
  return true;
}

std::vector<std::string> resolve_apps(const GridSpec& spec) {
  std::vector<std::string> apps = spec.app == "all"
                                      ? apps::workload_names()
                                      : split_list(spec.app);
  if (apps.empty()) {
    throw ConfigError("app", spec.app, "expected at least one app");
  }
  return apps;
}

std::vector<SystemKind> resolve_systems(const GridSpec& spec) {
  if (spec.system == "all") {
    return {SystemKind::kNetCache, SystemKind::kNetCacheNoRing,
            SystemKind::kLambdaNet, SystemKind::kDmonUpdate,
            SystemKind::kDmonInvalidate};
  }
  std::vector<SystemKind> out;
  for (const auto& s : split_list(spec.system)) {
    SystemKind kind;
    if (!parse_system_kind(s, &kind)) {
      throw ConfigError("system", s, "unknown system");
    }
    out.push_back(kind);
  }
  if (out.empty()) {
    throw ConfigError("system", spec.system, "expected at least one system");
  }
  return out;
}

bool app_faulted(const GridSpec& spec, const std::string& app) {
  if (spec.fault_apps.empty()) return true;
  for (const auto& name : split_list(spec.fault_apps)) {
    if (name == app) return true;
  }
  return false;
}

void apply_spec_knobs(const GridSpec& spec, const std::string& app,
                      MachineConfig* config) {
  config->nodes = spec.nodes;
  config->l2.size_bytes = spec.l2_kb * 1024;
  config->ring.channels = spec.channels;
  config->gbit_per_s = spec.gbps;
  config->mem_block_read_cycles = spec.mem;
  config->ring.replacement = spec.policy;
  config->ring.associativity = spec.assoc;
  config->sequential_prefetch = spec.prefetch;
  config->reads_start_on_star = !spec.ring_only_reads;
  config->verify = config->verify || spec.verify;
  config->faults.spec = app_faulted(spec, app) ? spec.faults : "";
  if (spec.fault_seed_set) config->faults.seed = spec.fault_seed;
  config->faults.recovery = spec.fault_recovery;
}

std::vector<sweep::Cell> to_cells(const GridSpec& spec) {
  const std::vector<std::string> apps = resolve_apps(spec);
  const std::vector<SystemKind> kinds = resolve_systems(spec);
  std::vector<sweep::Cell> cells;
  cells.reserve(apps.size() * kinds.size());
  for (const auto& app : apps) {
    for (SystemKind kind : kinds) {
      sweep::Cell cell;
      cell.app = app;
      cell.system = kind;
      cell.nodes = spec.nodes;
      cell.scale = spec.scale;
      cell.paper_size = spec.paper_size;
      cell.tweak = [spec, app](MachineConfig& config) {
        apply_spec_knobs(spec, app, &config);
      };
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

sweep::FlagParse parse_grid_flag(const char* arg, GridSpec* spec,
                                 std::string* error) {
  using sweep::FlagParse;
  auto bad = [error](const char* flag, const std::string& v,
                     const char* why) {
    if (error != nullptr) {
      *error = std::string("bad ") + flag + " value '" + v + "': " + why;
    }
    return FlagParse::kBadValue;
  };
  auto value_of = [arg](const char* name, std::string* v) {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      *v = arg + len + 1;
      return true;
    }
    return false;
  };
  std::string v;
  if (std::strcmp(arg, "--paper-size") == 0) { spec->paper_size = true; return FlagParse::kConsumed; }
  if (std::strcmp(arg, "--prefetch") == 0) { spec->prefetch = true; return FlagParse::kConsumed; }
  if (std::strcmp(arg, "--ring-only-reads") == 0) { spec->ring_only_reads = true; return FlagParse::kConsumed; }
  if (std::strcmp(arg, "--verify") == 0) { spec->verify = true; return FlagParse::kConsumed; }
  if (std::strcmp(arg, "--no-fault-recovery") == 0) { spec->fault_recovery = false; return FlagParse::kConsumed; }
  if (value_of("--app", &v)) { spec->app = v; return FlagParse::kConsumed; }
  if (value_of("--system", &v)) { spec->system = v; return FlagParse::kConsumed; }
  if (value_of("--faults", &v)) { spec->faults = v; return FlagParse::kConsumed; }
  if (value_of("--fault-apps", &v)) { spec->fault_apps = v; return FlagParse::kConsumed; }
  if (value_of("--nodes", &v)) {
    long long n = 0;
    if (!parse_i64(v, &n)) return bad("--nodes", v, "expected an integer");
    spec->nodes = static_cast<int>(n);
    return FlagParse::kConsumed;
  }
  if (value_of("--scale", &v)) {
    if (!parse_f64(v, &spec->scale)) return bad("--scale", v, "expected a number");
    return FlagParse::kConsumed;
  }
  if (value_of("--l2-kb", &v)) {
    long long n = 0;
    if (!parse_i64(v, &n)) return bad("--l2-kb", v, "expected an integer");
    spec->l2_kb = static_cast<int>(n);
    return FlagParse::kConsumed;
  }
  if (value_of("--channels", &v)) {
    long long n = 0;
    if (!parse_i64(v, &n)) return bad("--channels", v, "expected an integer");
    spec->channels = static_cast<int>(n);
    return FlagParse::kConsumed;
  }
  if (value_of("--gbps", &v)) {
    if (!parse_f64(v, &spec->gbps)) return bad("--gbps", v, "expected a number");
    return FlagParse::kConsumed;
  }
  if (value_of("--mem", &v)) {
    if (!parse_u64(v, &spec->mem)) return bad("--mem", v, "expected an integer");
    return FlagParse::kConsumed;
  }
  if (value_of("--policy", &v)) {
    if (!parse_policy(v, &spec->policy)) return bad("--policy", v, "random | lfu | lru | fifo");
    return FlagParse::kConsumed;
  }
  if (value_of("--assoc", &v)) {
    if (!parse_assoc(v, &spec->assoc)) return bad("--assoc", v, "full | direct");
    return FlagParse::kConsumed;
  }
  if (value_of("--fault-seed", &v)) {
    if (!parse_u64(v, &spec->fault_seed)) return bad("--fault-seed", v, "expected an integer");
    spec->fault_seed_set = true;
    return FlagParse::kConsumed;
  }
  return FlagParse::kNotSweepFlag;
}

std::string grid_flags_help() {
  std::string out = "  --app=NAMES        comma list or 'all'; one of:";
  for (const auto& n : apps::workload_names()) out += " " + n;
  out +=
      "\n"
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
      "  --verify           runtime coherence oracle: shadow-memory model\n"
      "                     checking every cached read against the latest\n"
      "                     committed store (also: NETCACHE_VERIFY=1)\n"
      "  --faults=SPEC      deterministic fault injection; comma list of\n"
      "                     kind:count[@duration] (crash/hang need an\n"
      "                     isolating supervisor)\n"
      "  --fault-apps=LIST  apply --faults only to cells of these apps\n"
      "  --fault-seed=N     seed deriving the fault schedule\n"
      "  --no-fault-recovery  leave injected faults unrepaired (needs\n"
      "                     --verify)\n";
  return out;
}

}  // namespace netcache::serve
