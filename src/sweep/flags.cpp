#include "src/sweep/flags.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sweep/result_cache.hpp"

namespace netcache::sweep {

namespace {

/// "--name=value" matcher: true when `arg` is `name` followed by '='; *out
/// receives the (possibly empty) value text.
bool flag_value(const char* arg, const char* name, const char** out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

bool strict_long(const char* text, long* out) {
  char* end = nullptr;
  long n = std::strtol(text, &end, 10);
  if (*text == '\0' || end == text || *end != '\0') return false;
  *out = n;
  return true;
}

bool strict_double(const char* text, double* out) {
  char* end = nullptr;
  double d = std::strtod(text, &end);
  if (*text == '\0' || end == text || *end != '\0') return false;
  *out = d;
  return true;
}

FlagParse bad(std::string* error, const char* flag, const char* value,
              const char* why) {
  if (error != nullptr) {
    *error = std::string("bad ") + flag + " value '" + value + "': " + why;
  }
  return FlagParse::kBadValue;
}

}  // namespace

FlagParse parse_sweep_flag(const char* arg, SweepFlags* flags,
                           std::string* error) {
  const char* v = nullptr;
  if (std::strcmp(arg, "--isolate") == 0) {
    flags->isolation.enabled = true;
    return FlagParse::kConsumed;
  }
  if (flag_value(arg, "--jobs", &v)) {
    long n = 0;
    if (!strict_long(v, &n) || n < 1 || n > INT_MAX) {
      return bad(error, "--jobs", v, "expected an integer in 1..2147483647");
    }
    flags->jobs = static_cast<int>(n);
    return FlagParse::kConsumed;
  }
  if (flag_value(arg, "--cache", &v)) {
    if (*v == '\0') return bad(error, "--cache", v, "empty directory");
    flags->cache_dir = v;
    return FlagParse::kConsumed;
  }
  if (flag_value(arg, "--cell-timeout", &v)) {
    double s = 0;
    if (!strict_double(v, &s) || !std::isfinite(s) || s < 0 ||
        s > kMaxCellTimeoutS) {
      return bad(error, "--cell-timeout", v, "expected seconds in 0..1e6");
    }
    flags->isolation.cell_timeout_s = s;
    return FlagParse::kConsumed;
  }
  if (flag_value(arg, "--forensics", &v)) {
    if (*v == '\0') return bad(error, "--forensics", v, "empty directory");
    flags->isolation.forensics_dir = v;
    return FlagParse::kConsumed;
  }
  return FlagParse::kNotSweepFlag;
}

void apply_cache_flags(const SweepFlags& flags) {
  if (!flags.cache_dir.empty()) configure_shared_cache(flags.cache_dir);
}

std::string format_cache_stats() {
  const ResultCache* cache = shared_cache();
  if (cache == nullptr) return {};
  const CacheStats cs = cache->stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cache: %llu hit(s), %llu miss(es), %llu store(s), "
                "%llu skip(s), %llu store error(s)  [%s]\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stores),
                static_cast<unsigned long long>(cs.skips),
                static_cast<unsigned long long>(cs.store_errors),
                cache->dir().c_str());
  return buf;
}

const char* sweep_flags_help() {
  return
      "  --jobs=N           sweep worker threads (or supervised children)\n"
      "                     for multi-cell runs (default: hardware threads)\n"
      "  --cache=DIR        persistent sweep result cache: unchanged cells\n"
      "                     are served bit-identically from DIR instead of\n"
      "                     re-simulated (default: no cache)\n"
      "  --isolate          run every cell once, in its own supervised child\n"
      "                     process: crashes and livelocks are contained,\n"
      "                     the rest of the grid completes, and a re-run\n"
      "                     with --cache re-executes only the failed cells\n"
      "  --cell-timeout=S   wall-clock seconds per supervised cell before\n"
      "                     SIGKILL (default 900; 0 = none; at most 1e6)\n"
      "  --forensics=DIR    write one file per failed supervised cell\n"
      "                     (diagnosis + captured stderr) under DIR\n";
}

}  // namespace netcache::sweep
