// Trace-driven frontend: replays memory-reference traces through the
// timing model, complementing the execution-driven kernels. Useful for
// replaying address streams captured from real programs or generated by
// external tools.
//
// Text format, one record per line (comments start with '#'):
//   <tid> r <addr>            read
//   <tid> w <addr> <bytes>    write
//   <tid> c <cycles>          compute
//   <tid> b                   global barrier (k-th 'b' of every tid aligns)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/workload.hpp"

namespace netcache::apps {

struct TraceRecord {
  enum class Op : std::uint8_t { kRead, kWrite, kCompute, kBarrier };
  Op op;
  Addr addr = 0;
  std::int64_t arg = 0;  // bytes for writes, cycles for compute
};

class TraceWorkload final : public Workload {
 public:
  /// Builds from per-thread record streams. Throws ConfigError unless there
  /// is at least one stream and every non-empty one contains the same number
  /// of barrier records.
  explicit TraceWorkload(std::vector<std::vector<TraceRecord>> streams);

  /// Parses the text format. Throws ConfigError naming the line number of a
  /// malformed line (and from_file, the file), or the path of a file that
  /// cannot be opened.
  static std::unique_ptr<TraceWorkload> from_string(const std::string& text);
  static std::unique_ptr<TraceWorkload> from_file(const std::string& path);

  const char* name() const override { return "trace"; }
  /// Throws ConfigError naming the record when an address does not fit the
  /// shared heap or a write does not lie within one L2 block.
  void setup(core::Machine& machine) override;
  sim::Task<void> run(core::Cpu& cpu, int tid) override;
  bool verify() override { return replay_complete_; }

  int thread_count() const { return static_cast<int>(streams_.size()); }
  std::size_t records(int tid) const {
    return streams_[static_cast<std::size_t>(tid)].size();
  }

 private:
  std::vector<std::vector<TraceRecord>> streams_;
  std::int64_t barrier_rounds_ = 0;
  Addr base_ = 0;
  std::size_t executed_ = 0;
  std::size_t expected_ = 0;
  bool replay_complete_ = false;
  core::Barrier* barrier_ = nullptr;
  int machine_nodes_ = 0;
};

/// Serializes streams back to the text format (round-trip with
/// from_string).
std::string trace_to_string(
    const std::vector<std::vector<TraceRecord>>& streams);

}  // namespace netcache::apps
