#include "workloads.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "cg_mz.h"
#include "ep_mz.h"
#include "is_mz.h"
#include "jacobi_mz.h"
#include "mandel_mz.h"
#include "npb/cg.h"
#include "npb/ep.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "npb/nprandom.h"
#include "runtime/hl.h"
#include "taskgraph_mz.h"

namespace zbench {
namespace {

template <typename T>
mz::Slice<T> slice_of(std::vector<T>& v) {
  return mz::Slice<T>{v.data(), static_cast<std::int64_t>(v.size())};
}

/// splitmix64: turns the run seed into input values.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// -- cg: NPB CG class W -------------------------------------------------------
//
// Fifteen regions per solve, each with 52 `single` dot products and 128
// barriers per member around cache-resident vector loops: the barrier- and
// single-bound workload. Inputs are fixed by the class.
class CgWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t, int) override {
    a_ = zomp::npb::cg_make_matrix(cls_.na, cls_.nonzer);
    for (auto* v : {&x_, &z_, &r_, &p_, &q_}) {
      v->assign(static_cast<std::size_t>(a_.n), 0.0);
    }
  }
  void make_oracle() override {}  // the class's frozen zeta

  void solve_zig() override {
    zig_.zeta = mzgen_cg_mz::cg_run(
        slice_of(a_.rowstr), slice_of(a_.colidx), slice_of(a_.values),
        slice_of(x_), slice_of(z_), slice_of(r_), slice_of(p_), slice_of(q_),
        cls_.niter, cls_.shift, slice_of(rnorm_));
    zig_.final_rnorm = rnorm_[0];
    zig_.iterations = cls_.niter;
  }
  void solve_ref(int threads) override {
    ref_ = zomp::npb::cg_parallel(a_, cls_.niter, cls_.shift, threads);
  }
  bool zig_ok() const override { return zomp::npb::cg_verify(zig_, cls_); }
  bool ref_ok() const override { return zomp::npb::cg_verify(ref_, cls_); }

 private:
  const zomp::npb::CgClass cls_ = zomp::npb::cg_class('W');
  zomp::npb::SparseMatrix a_;
  std::vector<double> x_, z_, r_, p_, q_;
  std::vector<double> rnorm_ = std::vector<double>(1, 0.0);
  zomp::npb::CgResult zig_, ref_;
};

// -- ep: NPB EP at m = 22 (2^22 pairs, a quarter of class S) ---------------------
//
// One region per solve; about 3.3M contended `omp atomic` updates of the
// 10-bin histogram dominate the transpiled kernel. m = 22 keeps a solve near
// 0.2 s so a run holds tens of them. No NPB class has this size, so sx/sy are
// checked against the serial kernel. Inputs are fixed.
class EpWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t, int) override {}
  void make_oracle() override {
    const zomp::npb::EpResult s = zomp::npb::ep_serial(cls_.m);
    cls_.verify_sx = s.sx;
    cls_.verify_sy = s.sy;
  }

  void solve_zig() override {
    mzgen_ep_mz::ep_run(cls_.m, slice_of(q_), slice_of(res_));
    zig_.sx = res_[0];
    zig_.sy = res_[1];
  }
  void solve_ref(int threads) override {
    ref_ = zomp::npb::ep_parallel(cls_.m, threads);
  }
  bool zig_ok() const override { return zomp::npb::ep_verify(zig_, cls_); }
  bool ref_ok() const override { return zomp::npb::ep_verify(ref_, cls_); }

 private:
  zomp::npb::EpClass cls_{'-', 22, 0.0, 0.0};
  std::vector<double> q_ = std::vector<double>(10, 0.0);
  std::vector<double> res_ = std::vector<double>(3, 0.0);
  zomp::npb::EpResult zig_, ref_;
};

// -- is: NPB IS class W (2^20 keys) ----------------------------------------------
//
// Ten ranking rounds over 8 MB of keys, four times a core's 2 MB L2, with
// schedule(runtime) loops and scattered writes to per-thread 512 KB
// histograms: bound by traffic to the shared cache. Class A (64 MB) is not
// used: its run medians varied by 20-60% from run to run on a shared 4-CPU
// host. Seed 0 uses the NPB key stream (the reference is checked
// against the class checksum); any other seed starts the same generator
// elsewhere. The transpiled kernel is always checked against a serial oracle.
class IsWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, int threads) override {
    seed_ = seed;
    if (seed == 0) {
      keys0_ = zomp::npb::is_make_keys(cls_.total_keys, cls_.max_key);
    } else {
      keys0_.resize(static_cast<std::size_t>(cls_.total_keys));
      // An odd start below 2^46, as the NPB generator requires.
      double x = static_cast<double>((SeedStream(seed).next() >> 19) | 1);
      const double k = static_cast<double>(cls_.max_key) / 4.0;
      for (auto& key : keys0_) {
        double v = zomp::npb::randlc(&x, zomp::npb::kRandA);
        v += zomp::npb::randlc(&x, zomp::npb::kRandA);
        v += zomp::npb::randlc(&x, zomp::npb::kRandA);
        v += zomp::npb::randlc(&x, zomp::npb::kRandA);
        key = static_cast<std::int64_t>(k * v);
      }
    }
    keys_ = keys0_;
    count_.assign(static_cast<std::size_t>(cls_.max_key), 0);
    hist_.assign(static_cast<std::size_t>(cls_.max_key) *
                     static_cast<std::size_t>(threads),
                 0);
  }
  void make_oracle() override {
    expect_mod_ = zomp::npb::is_rank_checksum_mod(keys0_, cls_.max_key,
                                                  cls_.iterations);
    expect_rank_ = seed_ == 0 ? cls_.verify_checksum
                              : zomp::npb::is_serial(keys0_, cls_.max_key,
                                                     cls_.iterations, false)
                                    .rank_checksum;
  }

  void prepare_zig() override {
    std::memcpy(keys_.data(), keys0_.data(), keys0_.size() * sizeof(keys0_[0]));
  }
  void prepare_ref() override { ref_keys_ = keys0_; }

  void solve_zig() override {
    zig_mod_ = mzgen_is_mz::is_run(slice_of(keys_), cls_.max_key,
                                   cls_.iterations, slice_of(count_),
                                   slice_of(hist_));
  }
  void solve_ref(int threads) override {
    ref_rank_ = zomp::npb::is_parallel(std::move(ref_keys_), cls_.max_key,
                                       cls_.iterations, threads, false)
                    .rank_checksum;
  }
  bool zig_ok() const override { return zig_mod_ == expect_mod_; }
  bool ref_ok() const override { return ref_rank_ == expect_rank_; }

 private:
  const zomp::npb::IsClass cls_ = zomp::npb::is_class('W');
  std::uint64_t seed_ = 0;
  std::vector<std::int64_t> keys0_, keys_, ref_keys_, count_, hist_;
  std::int64_t expect_mod_ = 0, zig_mod_ = -1;
  std::uint64_t expect_rank_ = 0, ref_rank_ = 0;
};

// -- mandel: 512 x 512 at 2000 iterations, schedule(dynamic, 1) ----------------
//
// Rows differ in cost by orders of magnitude, so the dynamic dispatch claims
// and the load balance they buy set the time. Inputs are fixed.
class MandelWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t, int) override {}
  void make_oracle() override { expect_ = zomp::npb::mandel_serial(params_); }

  void solve_zig() override {
    mzgen_mandel_mz::mandel_run(params_.width, params_.height,
                                params_.max_iter, slice_of(res_));
  }
  void solve_ref(int threads) override {
    ref_ = zomp::npb::mandel_parallel(params_, threads, /*dynamic*/ 1, 1);
  }
  bool zig_ok() const override {
    return res_[0] == expect_.inside &&
           static_cast<std::uint64_t>(res_[1]) == expect_.iter_checksum;
  }
  bool ref_ok() const override {
    return ref_.inside == expect_.inside &&
           ref_.iter_checksum == expect_.iter_checksum;
  }

 private:
  const zomp::npb::MandelParams params_{512, 512, 2000};
  std::vector<std::int64_t> res_ = std::vector<std::int64_t>(2, 0);
  zomp::npb::MandelResult expect_, ref_;
};

// -- taskgraph: blocked lower-triangular solve as a dependence wavefront --------
//
// wavefront_run(nb = 256, bs = 8) creates nb(nb+1)/2 = 32,896 dependent
// tasks per solve, the only workload that creates tasks. The seed picks the
// solution x* and the right-hand side is b = (I + L) x*, so every solve must
// reproduce x* exactly and no intermediate overflows i64.
std::int64_t wavefront_l(std::int64_t i, std::int64_t j) {
  std::int64_t r = (i + 2 * j) % 3;
  if (r < 0) r += 3;
  return r - 1;
}

/// Same DAG and block bodies as taskgraph.mz's wavefront_run, written on
/// zomp::task_depend.
void wavefront_ref(std::int64_t nb, std::int64_t bs, const std::int64_t* b,
                   std::int64_t* x, int threads) {
  std::copy(b, b + nb * bs, x);
  zomp::ParallelOptions team;
  team.num_threads = threads;
  zomp::parallel(
      [&] {
        zomp::single([&] {
          for (std::int64_t k = 0; k < nb; ++k) {
            zomp::task_depend({zomp::dep_inout(&x[k * bs])}, [=] {
              const std::int64_t lo = k * bs;
              for (std::int64_t i = lo; i < lo + bs; ++i) {
                std::int64_t s = 0;
                for (std::int64_t j = lo; j < i; ++j) {
                  s += wavefront_l(i, j) * x[j];
                }
                x[i] -= s;
              }
            });
            for (std::int64_t j = k + 1; j < nb; ++j) {
              zomp::task_depend(
                  {zomp::dep_in(&x[k * bs]), zomp::dep_inout(&x[j * bs])},
                  [=] {
                    for (std::int64_t i = j * bs; i < (j + 1) * bs; ++i) {
                      std::int64_t s = 0;
                      for (std::int64_t t = k * bs; t < (k + 1) * bs; ++t) {
                        s += wavefront_l(i, t) * x[t];
                      }
                      x[i] -= s;
                    }
                  });
            }
          }
        });
      },
      team);
}

class TaskgraphWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, int) override {
    SeedStream rng(seed);
    xstar_.resize(kN);
    for (auto& v : xstar_) {
      v = static_cast<std::int64_t>(rng.next() % 2001) - 1000;
    }
    b_.resize(kN);
    for (std::int64_t i = 0; i < kN; ++i) {
      std::int64_t s = xstar_[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < i; ++j) {
        s += wavefront_l(i, j) * xstar_[static_cast<std::size_t>(j)];
      }
      b_[static_cast<std::size_t>(i)] = s;
    }
    x_.assign(kN, 0);
    xr_.assign(kN, 0);
  }
  void make_oracle() override {
    expect_sum_ = 0;
    for (std::int64_t i = 0; i < kN; ++i) {
      expect_sum_ += xstar_[static_cast<std::size_t>(i)] * (i % 13 + 1);
    }
  }

  void solve_zig() override {
    sum_ = mzgen_taskgraph_mz::wavefront_run(kNb, kBs, slice_of(b_),
                                             slice_of(x_));
  }
  void solve_ref(int threads) override {
    wavefront_ref(kNb, kBs, b_.data(), xr_.data(), threads);
  }
  bool zig_ok() const override { return sum_ == expect_sum_ && x_ == xstar_; }
  bool ref_ok() const override { return xr_ == xstar_; }

 private:
  static constexpr std::int64_t kNb = 256, kBs = 8, kN = kNb * kBs;
  std::vector<std::int64_t> xstar_, b_, x_, xr_;
  std::int64_t expect_sum_ = 0, sum_ = 0;
};

// -- jacobi: 4000 five-point sweeps of a 128 x 128 interior -----------------------
//
// One `parallel for reduction` per sweep over a few microseconds of
// arithmetic: the fork-heavy workload, where fork handoff and the reduction
// rendezvous do much of the work. The seed sets the boundary values.
constexpr std::int64_t kJacobiN = 130;  // interior plus boundary
constexpr std::int64_t kJacobiSweeps = 4000;

/// One sweep src -> dst over rows [lo, hi); returns the sum of squared
/// updates. The stencil sums in the same order as jacobi.mz, so grids match
/// bit for bit.
double jacobi_rows(const double* src, double* dst, std::int64_t lo,
                   std::int64_t hi) {
  constexpr std::int64_t n = kJacobiN;
  double res = 0.0;
  for (std::int64_t i = lo; i < hi; ++i) {
    for (std::int64_t j = 1; j < n - 1; ++j) {
      const std::int64_t k = i * n + j;
      const double v =
          0.25 * (((src[k - n] + src[k + n]) + src[k - 1]) + src[k + 1]);
      const double d = v - src[k];
      res += d * d;
      dst[k] = v;
    }
  }
  return res;
}

class JacobiWorkload final : public Workload {
 public:
  void make_inputs(std::uint64_t seed, int) override {
    SeedStream rng(seed);
    constexpr std::int64_t n = kJacobiN;
    grid0_.assign(static_cast<std::size_t>(n * n), 0.0);
    for (std::int64_t t = 0; t < n; ++t) {
      grid0_[static_cast<std::size_t>(t)] = rng.unit();
      grid0_[static_cast<std::size_t>((n - 1) * n + t)] = rng.unit();
      grid0_[static_cast<std::size_t>(t * n)] = rng.unit();
      grid0_[static_cast<std::size_t>(t * n + n - 1)] = rng.unit();
    }
    a_ = b_ = grid0_;
  }
  void make_oracle() override {
    expect_a_ = grid0_;
    std::vector<double> b = grid0_;
    for (std::int64_t s = 0; s + 1 < kJacobiSweeps; s += 2) {
      jacobi_rows(expect_a_.data(), b.data(), 1, kJacobiN - 1);
      expect_res_ = jacobi_rows(b.data(), expect_a_.data(), 1, kJacobiN - 1);
    }
  }

  void prepare_zig() override { a_ = b_ = grid0_; }
  void prepare_ref() override { a_ = b_ = grid0_; }

  void solve_zig() override {
    res_ = mzgen_jacobi_mz::jacobi_run(kJacobiN, kJacobiSweeps, slice_of(a_),
                                       slice_of(b_));
  }
  void solve_ref(int threads) override {
    zomp::ParallelOptions team;
    team.num_threads = threads;
    const auto sweep = [&](const std::vector<double>& src,
                           std::vector<double>& dst) {
      return zomp::parallel_reduce<double>(
          1, kJacobiN - 1, 0.0, std::plus<>{},
          [&](std::int64_t i) {
            return jacobi_rows(src.data(), dst.data(), i, i + 1);
          },
          {}, team);
    };
    for (std::int64_t s = 0; s + 1 < kJacobiSweeps; s += 2) {
      sweep(a_, b_);
      res_ = sweep(b_, a_);
    }
  }
  bool zig_ok() const override { return ok(); }
  bool ref_ok() const override { return ok(); }

 private:
  bool ok() const {
    return a_ == expect_a_ &&
           std::fabs(res_ - expect_res_) <= 1e-9 * std::fabs(expect_res_);
  }

  std::vector<double> grid0_, a_, b_, expect_a_;
  double expect_res_ = 0.0, res_ = -1.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cg") return std::make_unique<CgWorkload>();
  if (name == "ep") return std::make_unique<EpWorkload>();
  if (name == "is") return std::make_unique<IsWorkload>();
  if (name == "mandel") return std::make_unique<MandelWorkload>();
  if (name == "taskgraph") return std::make_unique<TaskgraphWorkload>();
  if (name == "jacobi") return std::make_unique<JacobiWorkload>();
  return nullptr;
}

}  // namespace zbench
