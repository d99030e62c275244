// Application-kernel framework: the Workload interface plus simulated shared
// and private array types. Kernels are real algorithms; their functional
// state lives in native vectors while every access is charged to the timing
// model through the Cpu API (the execution-driven split, see DESIGN.md).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/core/cpu.hpp"
#include "src/core/machine.hpp"
#include "src/sim/task.hpp"

namespace netcache::apps {

/// Workload sizing knobs passed to the factory. `paper_size` restores the
/// paper's Table 4 inputs; the defaults are reduced so every figure
/// regenerates in seconds (see EXPERIMENTS.md).
struct WorkloadParams {
  bool paper_size = false;
  /// Multiplies the default (reduced) problem size; ignored with paper_size.
  /// Must lie in (0, kMaxScale].
  double scale = 1.0;
  std::uint64_t seed = 0xC0FFEEull;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;

  /// Allocates shared structures and initializes functional data. Also the
  /// place to grab locks/barriers from the machine. Every shared address the
  /// run touches must be allocated by the end of setup: the coherence
  /// oracle sizes its table to the footprint then.
  virtual void setup(core::Machine& machine) = 0;

  /// Per-node worker body; `tid` equals the node id.
  virtual sim::Task<void> run(core::Cpu& cpu, int tid) = 0;

  /// Functional correctness check after the run (reference comparison,
  /// sortedness, residual, ...).
  virtual bool verify() = 0;
};

/// Awaiter of a timed element read (SharedArray/PrivateArray::rd): the
/// Cpu's read awaiter, sampling the element when the load completes.
template <typename T>
class ValueRead : public core::Cpu::ReadAwaiter {
 public:
  ValueRead(core::Cpu& cpu, Addr addr, const T* value) noexcept
      : ReadAwaiter(cpu, addr), value_(value) {}
  T await_resume() const { return *value_; }

 private:
  const T* value_;
};

/// Awaiter of a timed element write (SharedArray/PrivateArray::wr): stores
/// the value when awaited, then charges the Cpu's write.
template <typename T>
class ValueWrite : public core::Cpu::WriteAwaiter {
 public:
  ValueWrite(core::Cpu& cpu, Addr addr, T* slot, T value) noexcept
      : WriteAwaiter(cpu, addr, static_cast<int>(sizeof(T))),
        slot_(slot),
        value_(value) {}
  void await_suspend(std::coroutine_handle<> caller) {
    *slot_ = value_;
    WriteAwaiter::await_suspend(caller);
  }

 private:
  T* slot_;
  T value_;
};

/// A shared array whose elements are block-interleaved across node memories.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;

  void allocate(core::Machine& machine, std::size_t count) {
    data_.assign(count, T{});
    base_ = machine.address_space().alloc_shared(count * sizeof(T));
  }

  std::size_t size() const { return data_.size(); }
  bool allocated() const { return !data_.empty(); }
  Addr addr(std::size_t i) const { return base_ + i * sizeof(T); }

  /// Untimed access for initialization and verification.
  T& raw(std::size_t i) { return data_[i]; }
  const T& raw(std::size_t i) const { return data_[i]; }
  std::vector<T>& raw_data() { return data_; }

  /// Timed read: charges the memory hierarchy, returns the value.
  ValueRead<T> rd(core::Cpu& cpu, std::size_t i) {
    return ValueRead<T>(cpu, addr(i), &data_[i]);
  }

  /// Timed write through the coalescing write buffer.
  ValueWrite<T> wr(core::Cpu& cpu, std::size_t i, T value) {
    return ValueWrite<T>(cpu, addr(i), &data_[i], value);
  }

 private:
  Addr base_ = 0;
  std::vector<T> data_;
};

/// A per-node private array (maps to the local memory, never coherent).
template <typename T>
class PrivateArray {
 public:
  void allocate(core::Machine& machine, NodeId node, std::size_t count) {
    data_.assign(count, T{});
    base_ = machine.address_space().alloc_private(node, count * sizeof(T));
  }

  std::size_t size() const { return data_.size(); }
  Addr addr(std::size_t i) const { return base_ + i * sizeof(T); }
  T& raw(std::size_t i) { return data_[i]; }

  ValueRead<T> rd(core::Cpu& cpu, std::size_t i) {
    return ValueRead<T>(cpu, addr(i), &data_[i]);
  }

  ValueWrite<T> wr(core::Cpu& cpu, std::size_t i, T value) {
    return ValueWrite<T>(cpu, addr(i), &data_[i], value);
  }

 private:
  Addr base_ = 0;
  std::vector<T> data_;
};

/// [begin, end) range of `count` items owned by thread `tid` of `threads`.
struct Range {
  std::size_t begin;
  std::size_t end;
};
inline Range partition(std::size_t count, int tid, int threads) {
  std::size_t per = count / static_cast<std::size_t>(threads);
  std::size_t extra = count % static_cast<std::size_t>(threads);
  std::size_t b = per * static_cast<std::size_t>(tid) +
                  std::min<std::size_t>(static_cast<std::size_t>(tid), extra);
  std::size_t len = per + (static_cast<std::size_t>(tid) < extra ? 1 : 0);
  return Range{b, b + len};
}

// ---- Factory -------------------------------------------------------------

/// Largest WorkloadParams::scale the factory accepts. Each app converts a
/// scaled size to int, and radix's 131072 x scale keys is the largest: at
/// 1024 it is 2^27, well inside int (the limit is a scale just under 16384).
inline constexpr double kMaxScale = 1024;

/// Names of all twelve applications, in the paper's Table 4 order.
const std::vector<std::string>& workload_names();

/// Creates a workload by name ("cg", "em3d", "fft", "gauss", "lu", "mg",
/// "ocean", "radix", "raytrace", "sor", "water", "wf"). Throws ConfigError
/// for any other name, and for a scale that is not finite or lies outside
/// (0, kMaxScale].
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params = {});

// Per-application factories (implemented in their own translation units).
std::unique_ptr<Workload> make_cg(const WorkloadParams&);
std::unique_ptr<Workload> make_em3d(const WorkloadParams&);
std::unique_ptr<Workload> make_fft(const WorkloadParams&);
std::unique_ptr<Workload> make_gauss(const WorkloadParams&);
std::unique_ptr<Workload> make_lu(const WorkloadParams&);
std::unique_ptr<Workload> make_mg(const WorkloadParams&);
std::unique_ptr<Workload> make_ocean(const WorkloadParams&);
std::unique_ptr<Workload> make_radix(const WorkloadParams&);
std::unique_ptr<Workload> make_raytrace(const WorkloadParams&);
std::unique_ptr<Workload> make_sor(const WorkloadParams&);
std::unique_ptr<Workload> make_water(const WorkloadParams&);
std::unique_ptr<Workload> make_wf(const WorkloadParams&);

}  // namespace netcache::apps
