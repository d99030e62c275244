#include "src/apps/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/sim_error.hpp"

namespace netcache::apps {

TraceWorkload::TraceWorkload(std::vector<std::vector<TraceRecord>> streams)
    : streams_(std::move(streams)) {
  if (streams_.empty()) {
    throw ConfigError("trace", "(no records)",
                      "a trace needs at least one record");
  }
  // Barrier counts must agree across threads or the replay deadlocks.
  auto barriers = [](const std::vector<TraceRecord>& s) {
    return std::count_if(s.begin(), s.end(), [](const TraceRecord& r) {
      return r.op == TraceRecord::Op::kBarrier;
    });
  };
  barrier_rounds_ = 0;
  std::size_t first = streams_.size();
  for (std::size_t tid = 0; tid < streams_.size(); ++tid) {
    const auto& s = streams_[tid];
    expected_ += s.size();
    if (s.empty()) continue;  // absent tids just attend the barriers
    if (first == streams_.size()) {
      barrier_rounds_ = barriers(s);
      first = tid;
    } else if (barriers(s) != barrier_rounds_) {
      throw ConfigError("trace", "thread " + std::to_string(tid),
                        "has " + std::to_string(barriers(s)) +
                            " barriers, thread " + std::to_string(first) +
                            " has " + std::to_string(barrier_rounds_));
    }
  }
}

namespace {

[[noreturn]] void bad_line(int lineno, const std::string& line,
                           const char* why) {
  throw ConfigError("trace line " + std::to_string(lineno), line, why);
}

/// Record `r` of thread `tid` as one line of the text format, without the
/// newline.
std::string record_text(std::size_t tid, const TraceRecord& r) {
  char buf[96];
  switch (r.op) {
    case TraceRecord::Op::kRead:
      std::snprintf(buf, sizeof(buf), "%zu r %llu", tid,
                    static_cast<unsigned long long>(r.addr));
      break;
    case TraceRecord::Op::kWrite:
      std::snprintf(buf, sizeof(buf), "%zu w %llu %lld", tid,
                    static_cast<unsigned long long>(r.addr),
                    static_cast<long long>(r.arg));
      break;
    case TraceRecord::Op::kCompute:
      std::snprintf(buf, sizeof(buf), "%zu c %lld", tid,
                    static_cast<long long>(r.arg));
      break;
    case TraceRecord::Op::kBarrier:
      std::snprintf(buf, sizeof(buf), "%zu b", tid);
      break;
  }
  return buf;
}

/// Bytes a write record stores (a size below one stores one byte).
std::int64_t write_bytes(const TraceRecord& r) {
  return std::max<std::int64_t>(1, r.arg);
}

/// True when all of `field` parses as a decimal T (no sign if unsigned).
template <typename T>
bool parse_number(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  const auto [parsed, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && parsed == end;
}

}  // namespace

std::unique_ptr<TraceWorkload> TraceWorkload::from_string(
    const std::string& text) {
  std::vector<std::vector<TraceRecord>> streams;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::vector<std::string> f;  // the line's whitespace-separated fields
    for (std::string field; ls >> field;) f.push_back(std::move(field));
    if (f.empty() || f[0][0] == '#') continue;
    int tid = -1;
    if (!parse_number(f[0], &tid) || tid < 0 || tid >= 1024) {
      bad_line(lineno, line, "thread id must be an integer in [0, 1024)");
    }
    if (f.size() < 2) bad_line(lineno, line, "missing op (r, w, c or b)");
    const std::string& op = f[1];
    TraceRecord rec{};
    bool ok = false;
    const char* form = nullptr;  // the op's syntax, for the error
    if (op == "r") {
      rec.op = TraceRecord::Op::kRead;
      ok = f.size() == 3 && parse_number(f[2], &rec.addr);
      form = "a read is '<tid> r <addr>'";
    } else if (op == "w") {
      rec.op = TraceRecord::Op::kWrite;
      ok = f.size() == 4 && parse_number(f[2], &rec.addr) &&
           parse_number(f[3], &rec.arg);
      form = "a write is '<tid> w <addr> <bytes>'";
    } else if (op == "c") {
      rec.op = TraceRecord::Op::kCompute;
      ok = f.size() == 3 && parse_number(f[2], &rec.arg);
      form = "a compute is '<tid> c <cycles>'";
    } else if (op == "b") {
      rec.op = TraceRecord::Op::kBarrier;
      ok = f.size() == 2;
      form = "a barrier is '<tid> b'";
    } else {
      bad_line(lineno, line, "unknown op (expected r, w, c or b)");
    }
    if (!ok) bad_line(lineno, line, form);
    if (streams.size() <= static_cast<std::size_t>(tid)) {
      streams.resize(static_cast<std::size_t>(tid) + 1);
    }
    streams[static_cast<std::size_t>(tid)].push_back(rec);
  }
  return std::make_unique<TraceWorkload>(std::move(streams));
}

std::unique_ptr<TraceWorkload> TraceWorkload::from_file(
    const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ConfigError("trace", path, "cannot open trace file");
  std::stringstream buf;
  buf << f.rdbuf();
  // A parse error ends the run before any cell names the trace, so the
  // error names the file itself.
  try {
    return from_string(buf.str());
  } catch (const ConfigError& e) {
    throw ConfigError(e.key() + " in " + path, e.value(), e.why());
  }
}

void TraceWorkload::setup(core::Machine& machine) {
  machine_nodes_ = machine.nodes();
  core::AddressSpace& as = machine.address_space();
  const std::int64_t block = as.block_bytes();
  // Every traced address is replayed at base_ + addr, and base_ is
  // block-aligned, so these checks judge the replayed accesses.
  Addr max_addr = 0;
  for (std::size_t tid = 0; tid < streams_.size(); ++tid) {
    for (const TraceRecord& r : streams_[tid]) {
      if (r.op != TraceRecord::Op::kRead && r.op != TraceRecord::Op::kWrite) {
        continue;
      }
      // The heap allocation below spans the highest address plus 128 bytes;
      // the first test keeps that sum from wrapping.
      if (r.addr >= core::AddressSpace::kSharedHeapBytes ||
          !as.fits_shared(static_cast<std::size_t>(r.addr) + 128)) {
        throw ConfigError("trace", record_text(tid, r),
                          "address does not fit the 2^47-byte shared heap");
      }
      if (r.op == TraceRecord::Op::kWrite &&
          static_cast<std::int64_t>(r.addr % static_cast<Addr>(block)) +
                  write_bytes(r) >
              block) {
        throw ConfigError("trace", record_text(tid, r),
                          "a write must lie within one " +
                              std::to_string(block) + "-byte L2 block");
      }
      max_addr = std::max(max_addr, r.addr + 64);
    }
  }
  base_ = as.alloc_shared(static_cast<std::size_t>(max_addr) + 64);
  barrier_ = &machine.make_barrier(machine.nodes());
}

sim::Task<void> TraceWorkload::run(core::Cpu& cpu, int tid) {
  // Threads beyond the trace's width (or with empty streams) still attend
  // every barrier round so the replay cannot deadlock.
  const std::vector<TraceRecord> empty;
  const auto& stream =
      static_cast<std::size_t>(tid) < streams_.size()
          ? streams_[static_cast<std::size_t>(tid)]
          : empty;
  if (stream.empty()) {
    for (std::int64_t k = 0; k < barrier_rounds_; ++k) {
      co_await barrier_->wait(cpu);
    }
    if (executed_ == expected_) replay_complete_ = true;
    co_return;
  }
  for (const TraceRecord& r : stream) {
    switch (r.op) {
      case TraceRecord::Op::kRead:
        co_await cpu.read(base_ + r.addr);
        break;
      case TraceRecord::Op::kWrite:
        co_await cpu.write(base_ + r.addr, static_cast<int>(write_bytes(r)));
        break;
      case TraceRecord::Op::kCompute:
        co_await cpu.compute(r.arg);
        break;
      case TraceRecord::Op::kBarrier:
        co_await barrier_->wait(cpu);
        break;
    }
    ++executed_;
  }
  if (executed_ == expected_) replay_complete_ = true;
}

std::string trace_to_string(
    const std::vector<std::vector<TraceRecord>>& streams) {
  std::string out;
  for (std::size_t tid = 0; tid < streams.size(); ++tid) {
    for (const TraceRecord& r : streams[tid]) {
      out += record_text(tid, r);
      out += '\n';
    }
  }
  return out;
}

}  // namespace netcache::apps
