// LU: blocked dense LU factorization without pivoting, SPLASH-2 style
// (paper Table 4: 512x512 floats, 16x16 blocks). Blocks are stored
// contiguously and assigned to nodes in a 2D scatter; the perimeter blocks
// of each step are re-read by many nodes (High-reuse group).
#include <cmath>
#include <vector>

#include "src/apps/workload.hpp"
#include "src/common/rng.hpp"

namespace netcache::apps {

namespace {

class Lu final : public Workload {
 public:
  explicit Lu(const WorkloadParams& p) : seed_(p.seed) {
    block_ = 16;
    if (p.paper_size) {
      n_ = 512;
    } else {
      int target = std::max(64, static_cast<int>(192 * std::cbrt(p.scale)));
      n_ = (target / block_) * block_;
    }
    nblocks_ = n_ / block_;
  }

  const char* name() const override { return "lu"; }

  void setup(core::Machine& machine) override {
    threads_ = machine.nodes();
    grid_rows_ = 1;
    while ((grid_rows_ * 2) * (grid_rows_ * 2) <= threads_) grid_rows_ *= 2;
    while (threads_ % grid_rows_ != 0) --grid_rows_;
    grid_cols_ = threads_ / grid_rows_;

    a_.allocate(machine, static_cast<std::size_t>(n_) * n_);
    Rng rng(seed_);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        double v = rng.next_double();
        set_raw(i, j, (i == j) ? v + n_ : v);
      }
    }
    reference_.assign(static_cast<std::size_t>(n_) * n_, 0.0);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        reference_[static_cast<std::size_t>(i) * n_ + j] = get_raw(i, j);
      }
    }
    reference_solve();
    barrier_ = &machine.make_barrier(threads_);
  }

  sim::Task<void> run(core::Cpu& cpu, int tid) override {
    const int B = block_;
    for (int k = 0; k < nblocks_; ++k) {
      // 1. Factor the diagonal block (its owner only).
      if (owner(k, k) == tid) {
        for (int jj = 0; jj < B; ++jj) {
          double pivot = co_await rd(cpu, k, k, jj, jj);
          for (int ii = jj + 1; ii < B; ++ii) {
            double lij = (co_await rd(cpu, k, k, ii, jj)) / pivot;
            co_await wr(cpu, k, k, ii, jj, lij);
            for (int j2 = jj + 1; j2 < B; ++j2) {
              double v = co_await rd(cpu, k, k, ii, j2);
              double u = co_await rd(cpu, k, k, jj, j2);
              co_await wr(cpu, k, k, ii, j2, v - lij * u);
            }
            co_await cpu.compute(5 * (B - jj));
          }
        }
      }
      co_await barrier_->wait(cpu);

      // 2. Perimeter: row blocks (k,j) solve L(k,k) X = A; column blocks
      //    (i,k) solve X U(k,k) = A.
      for (int j = k + 1; j < nblocks_; ++j) {
        if (owner(k, j) != tid) continue;
        for (int jj = 0; jj < B; ++jj) {
          for (int ii = 1; ii < B; ++ii) {
            double acc = co_await rd(cpu, k, j, ii, jj);
            for (int kk = 0; kk < ii; ++kk) {
              double l = co_await rd(cpu, k, k, ii, kk);
              double x = co_await rd(cpu, k, j, kk, jj);
              acc -= l * x;
            }
            co_await wr(cpu, k, j, ii, jj, acc);
            co_await cpu.compute(5 * ii);
          }
        }
      }
      for (int i = k + 1; i < nblocks_; ++i) {
        if (owner(i, k) != tid) continue;
        for (int ii = 0; ii < B; ++ii) {
          for (int jj = 0; jj < B; ++jj) {
            double acc = co_await rd(cpu, i, k, ii, jj);
            for (int kk = 0; kk < jj; ++kk) {
              double x = co_await rd(cpu, i, k, ii, kk);
              double u = co_await rd(cpu, k, k, kk, jj);
              acc -= x * u;
            }
            double ujj = co_await rd(cpu, k, k, jj, jj);
            co_await wr(cpu, i, k, ii, jj, acc / ujj);
            co_await cpu.compute(5 * jj + 2);
          }
        }
      }
      co_await barrier_->wait(cpu);

      // 3. Interior update: A(i,j) -= A(i,k) * A(k,j).
      for (int i = k + 1; i < nblocks_; ++i) {
        for (int j = k + 1; j < nblocks_; ++j) {
          if (owner(i, j) != tid) continue;
          for (int ii = 0; ii < B; ++ii) {
            for (int jj = 0; jj < B; ++jj) {
              double acc = 0.0;
              for (int kk = 0; kk < B; ++kk) {
                double l = co_await rd(cpu, i, k, ii, kk);
                double u = co_await rd(cpu, k, j, kk, jj);
                acc += l * u;
              }
              double v = co_await rd(cpu, i, j, ii, jj);
              co_await wr(cpu, i, j, ii, jj, v - acc);
              co_await cpu.compute(5 * B);
            }
          }
        }
      }
      co_await barrier_->wait(cpu);
    }
  }

  bool verify() override {
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (get_raw(i, j) != reference_[static_cast<std::size_t>(i) * n_ + j]) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  int owner(int bi, int bj) const {
    return (bi % grid_rows_) * grid_cols_ + (bj % grid_cols_);
  }

  std::size_t elem(int bi, int bj, int ii, int jj) const {
    return ((static_cast<std::size_t>(bi) * nblocks_ + bj) * block_ + ii) *
               block_ +
           jj;
  }
  double get_raw(int i, int j) const {
    return a_.raw(elem(i / block_, j / block_, i % block_, j % block_));
  }
  void set_raw(int i, int j, double v) {
    a_.raw(elem(i / block_, j / block_, i % block_, j % block_)) = v;
  }
  ValueRead<double> rd(core::Cpu& cpu, int bi, int bj, int ii, int jj) {
    return a_.rd(cpu, elem(bi, bj, ii, jj));
  }
  ValueWrite<double> wr(core::Cpu& cpu, int bi, int bj, int ii, int jj,
                        double v) {
    return a_.wr(cpu, elem(bi, bj, ii, jj), v);
  }

  void reference_solve() {
    // Unblocked right-looking LU produces the same factors as the blocked
    // algorithm only in exact arithmetic; to verify bit-exactly we mirror
    // the blocked algorithm's operation order.
    auto ref = [&](int i, int j) -> double& {
      return reference_[static_cast<std::size_t>(i) * n_ + j];
    };
    const int B = block_;
    auto at = [&](int bi, int bj, int ii, int jj) -> double& {
      return ref(bi * B + ii, bj * B + jj);
    };
    for (int k = 0; k < nblocks_; ++k) {
      for (int jj = 0; jj < B; ++jj) {
        double pivot = at(k, k, jj, jj);
        for (int ii = jj + 1; ii < B; ++ii) {
          double lij = at(k, k, ii, jj) / pivot;
          at(k, k, ii, jj) = lij;
          for (int j2 = jj + 1; j2 < B; ++j2) {
            at(k, k, ii, j2) -= lij * at(k, k, jj, j2);
          }
        }
      }
      for (int j = k + 1; j < nblocks_; ++j) {
        for (int jj = 0; jj < B; ++jj) {
          for (int ii = 1; ii < B; ++ii) {
            double acc = at(k, j, ii, jj);
            for (int kk = 0; kk < ii; ++kk) {
              acc -= at(k, k, ii, kk) * at(k, j, kk, jj);
            }
            at(k, j, ii, jj) = acc;
          }
        }
      }
      for (int i = k + 1; i < nblocks_; ++i) {
        for (int ii = 0; ii < B; ++ii) {
          for (int jj = 0; jj < B; ++jj) {
            double acc = at(i, k, ii, jj);
            for (int kk = 0; kk < jj; ++kk) {
              acc -= at(i, k, ii, kk) * at(k, k, kk, jj);
            }
            at(i, k, ii, jj) = acc / at(k, k, jj, jj);
          }
        }
      }
      for (int i = k + 1; i < nblocks_; ++i) {
        for (int j = k + 1; j < nblocks_; ++j) {
          for (int ii = 0; ii < B; ++ii) {
            for (int jj = 0; jj < B; ++jj) {
              double acc = 0.0;
              for (int kk = 0; kk < B; ++kk) {
                acc += at(i, k, ii, kk) * at(k, j, kk, jj);
              }
              at(i, j, ii, jj) -= acc;
            }
          }
        }
      }
    }
  }

  std::uint64_t seed_;
  int n_;
  int block_;
  int nblocks_;
  int threads_ = 1;
  int grid_rows_ = 1;
  int grid_cols_ = 1;
  SharedArray<double> a_;
  std::vector<double> reference_;
  core::Barrier* barrier_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_lu(const WorkloadParams& p) {
  return std::make_unique<Lu>(p);
}

}  // namespace netcache::apps
