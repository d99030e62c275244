// Example: writing your own workload against the NetCache simulator API.
//
// Implements a parallel histogram kernel from scratch — shared input array,
// per-node private counting, lock-protected merge into a shared histogram —
// and runs it on all four simulated systems.
//
//   ./example_custom_workload [elements]
#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/common/rng.hpp"
#include "src/common/sim_error.hpp"
#include "src/core/machine.hpp"

using namespace netcache;

namespace {

constexpr int kBins = 64;

class Histogram final : public apps::Workload {
 public:
  explicit Histogram(int elements) : elements_(elements) {}

  const char* name() const override { return "histogram"; }

  void setup(core::Machine& machine) override {
    threads_ = machine.nodes();
    input_.allocate(machine, static_cast<std::size_t>(elements_));
    bins_.allocate(machine, kBins);
    local_.resize(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      local_[static_cast<std::size_t>(t)].allocate(machine, t, kBins);
    }
    Rng rng(1234);
    for (int i = 0; i < elements_; ++i) {
      input_.raw(static_cast<std::size_t>(i)) =
          static_cast<int>(rng.next_below(kBins));
    }
    lock_ = &machine.make_lock();
    barrier_ = &machine.make_barrier(threads_);
  }

  sim::Task<void> run(core::Cpu& cpu, int tid) override {
    auto& local = local_[static_cast<std::size_t>(tid)];
    // 1. Count this node's chunk into private memory.
    apps::Range mine =
        apps::partition(static_cast<std::size_t>(elements_), tid, threads_);
    for (int b = 0; b < kBins; ++b) {
      co_await local.wr(cpu, static_cast<std::size_t>(b), 0);
    }
    for (std::size_t i = mine.begin; i < mine.end; ++i) {
      int v = co_await input_.rd(cpu, i);
      int c = co_await local.rd(cpu, static_cast<std::size_t>(v));
      co_await local.wr(cpu, static_cast<std::size_t>(v), c + 1);
      co_await cpu.compute(2);
    }
    // 2. Merge into the shared histogram under a lock.
    co_await lock_->acquire(cpu);
    for (int b = 0; b < kBins; ++b) {
      int mine_count = co_await local.rd(cpu, static_cast<std::size_t>(b));
      int global = co_await bins_.rd(cpu, static_cast<std::size_t>(b));
      co_await bins_.wr(cpu, static_cast<std::size_t>(b),
                        global + mine_count);
    }
    co_await lock_->release(cpu);
    co_await barrier_->wait(cpu);
  }

  bool verify() override {
    std::vector<int> expect(kBins, 0);
    for (int i = 0; i < elements_; ++i) {
      ++expect[static_cast<std::size_t>(
          input_.raw(static_cast<std::size_t>(i)))];
    }
    for (int b = 0; b < kBins; ++b) {
      if (bins_.raw(static_cast<std::size_t>(b)) !=
          expect[static_cast<std::size_t>(b)]) {
        return false;
      }
    }
    return true;
  }

 private:
  int elements_;
  int threads_ = 1;
  apps::SharedArray<int> input_;
  apps::SharedArray<int> bins_;
  std::vector<apps::PrivateArray<int>> local_;
  core::Lock* lock_ = nullptr;
  core::Barrier* barrier_ = nullptr;
};

}  // namespace

int main(int argc, char** argv) try {
  int elements = 100000;
  if (argc > 1) {
    // Strict: "abc", "0" or "-5" is a config error, not a silent atoi()
    // value or a negative array size.
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, elements);
    if (ec != std::errc() || ptr != end || elements < 1) {
      throw ConfigError("elements", argv[1], "expected a positive integer");
    }
  }
  std::printf("parallel histogram, %d elements, 16 nodes\n", elements);
  for (SystemKind kind :
       {SystemKind::kNetCache, SystemKind::kLambdaNet,
        SystemKind::kDmonUpdate, SystemKind::kDmonInvalidate}) {
    MachineConfig config;
    config.system = kind;
    core::Machine machine(config);
    Histogram histogram(elements);
    auto summary = machine.run(histogram);
    std::printf("%s\n", core::format_summary(summary).c_str());
    if (!summary.verified) return 1;
  }
  return 0;
} catch (const SimError& e) {
  std::fprintf(stderr, "custom_workload: %s\n", e.what());
  return 1;
}
