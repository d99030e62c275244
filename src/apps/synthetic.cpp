#include "src/apps/synthetic.hpp"

#include <vector>

#include "src/common/rng.hpp"
#include "src/common/sim_error.hpp"

namespace netcache::apps {

namespace {

class Synthetic final : public Workload {
 public:
  explicit Synthetic(const SyntheticSpec& spec) : spec_(spec) {
    name_ = "synth-" + spec_.pattern;
    if (spec_.pattern != "uniform" && spec_.pattern != "hot" &&
        spec_.pattern != "prodcons" && spec_.pattern != "stream") {
      throw ConfigError("synthetic", spec_.pattern,
                        "unknown pattern (uniform, hot, prodcons, stream)");
    }
  }

  const char* name() const override { return name_.c_str(); }

  void setup(core::Machine& machine) override {
    threads_ = machine.nodes();
    words_ = spec_.array_bytes / sizeof(std::uint64_t);
    data_.allocate(machine, words_);
    expected_.assign(words_, 0);
    barrier_ = &machine.make_barrier(threads_);
  }

  sim::Task<void> run(core::Cpu& cpu, int tid) override {
    Rng rng(spec_.seed ^ (0x9E37ull * static_cast<std::uint64_t>(tid + 1)));
    Range mine = partition(words_, tid, threads_);
    std::size_t own_span = mine.end - mine.begin;
    // Hot region: the first ring-capacity worth of words.
    std::size_t hot_words =
        std::min(words_, static_cast<std::size_t>(32 * 1024) / 8);
    std::uint64_t write_seq = 0;

    if (spec_.pattern == "prodcons") {
      int rounds = std::max(1, spec_.accesses_per_node /
                                   (2 * static_cast<int>(own_span) + 1));
      Range next = partition(words_, (tid + 1) % threads_, threads_);
      for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = mine.begin; i < mine.end; ++i) {
          std::uint64_t v = value_of(tid, ++write_seq);
          expected_[i] = v;
          co_await data_.wr(cpu, i, v);
          co_await cpu.compute(2);
        }
        co_await barrier_->wait(cpu);
        for (std::size_t i = next.begin; i < next.end; ++i) {
          co_await data_.rd(cpu, i);
          co_await cpu.compute(2);
        }
        co_await barrier_->wait(cpu);
      }
      co_return;
    }

    std::size_t stream_pos = mine.begin;
    for (int a = 0; a < spec_.accesses_per_node; ++a) {
      bool is_write = rng.next_double() < spec_.write_fraction;
      if (is_write && own_span > 0) {
        std::size_t i =
            mine.begin + rng.next_below(static_cast<std::uint32_t>(own_span));
        std::uint64_t v = value_of(tid, ++write_seq);
        expected_[i] = v;  // owner-only writes: last write wins per owner
        co_await data_.wr(cpu, i, v);
      } else if (spec_.pattern == "uniform") {
        co_await data_.rd(
            cpu, rng.next_below(static_cast<std::uint32_t>(words_)));
      } else if (spec_.pattern == "hot") {
        std::size_t i =
            (rng.next_double() < 0.9)
                ? rng.next_below(static_cast<std::uint32_t>(hot_words))
                : rng.next_below(static_cast<std::uint32_t>(words_));
        co_await data_.rd(cpu, i);
      } else {  // stream
        co_await data_.rd(cpu, stream_pos);
        stream_pos = mine.begin + (stream_pos + 1 - mine.begin) % own_span;
      }
      co_await cpu.compute(3);
    }
  }

  bool verify() override {
    // Writes are owner-exclusive, so the functional array must match the
    // per-owner last-write record exactly.
    for (std::size_t i = 0; i < words_; ++i) {
      if (data_.raw(i) != expected_[i]) return false;
    }
    return true;
  }

 private:
  static std::uint64_t value_of(int tid, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(tid + 1) << 48) | seq;
  }

  SyntheticSpec spec_;
  std::string name_;
  int threads_ = 1;
  std::size_t words_ = 0;
  SharedArray<std::uint64_t> data_;
  std::vector<std::uint64_t> expected_;
  core::Barrier* barrier_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_synthetic(const SyntheticSpec& spec) {
  return std::make_unique<Synthetic>(spec);
}

}  // namespace netcache::apps
