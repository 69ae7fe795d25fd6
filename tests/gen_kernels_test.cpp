// Integration tests over the *transpiled* NPB kernels: the .mz sources went
// through the full mzc pipeline at build time (lexer -> directive engine ->
// outliner -> codegen) and the resulting native code must agree with the
// hand-written reference implementations. This is the end-to-end proof that
// the generated runtime calls are semantically right — the same role the
// NPB verification plays in the paper's evaluation.
#include <gtest/gtest.h>

#include <vector>

#include "cg_mz.h"
#include "cg_mz_safe.h"
#include "ep_mz.h"
#include "is_mz.h"
#include "mandel_mz.h"
#include "mandel_mz_safe.h"
#include "npb/cg.h"
#include "npb/ep.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "runtime/api.h"

namespace {

template <typename T>
mz::Slice<T> slice_of(std::vector<T>& v) {
  return mz::Slice<T>{v.data(), static_cast<std::int64_t>(v.size())};
}

TEST(GenEpTest, TranspiledMatchesSerialReference) {
  // The histogram is an array-section reduction packed with sx, sy and the
  // pair count (13 fields, 104 bytes: wider than a tree slot, so each
  // partial is read in place from its member's pack); 3 threads make a team
  // whose size is not a power of two. The tree folds in member order, so
  // repeated runs agree bit for bit.
  const zomp::npb::EpResult expect = zomp::npb::ep_serial(18);
  for (const int threads : {1, 2, 3, 4}) {
    std::vector<double> q(10, 0.0), res(3, 0.0);
    zomp::set_num_threads(threads);
    mzgen_ep_mz::ep_run(18, slice_of(q), slice_of(res));
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> q_again(10, 0.0), res_again(3, 0.0);
      mzgen_ep_mz::ep_run(18, slice_of(q_again), slice_of(res_again));
      EXPECT_EQ(res_again, res) << threads << " threads, repeat " << rep;
      EXPECT_EQ(q_again, q) << threads << " threads, repeat " << rep;
    }
    EXPECT_NEAR(res[0], expect.sx, 1e-7) << threads << " threads";
    EXPECT_NEAR(res[1], expect.sy, 1e-7) << threads << " threads";
    EXPECT_EQ(static_cast<std::int64_t>(res[2]), expect.pairs_in_disc)
        << threads << " threads";
    for (int b = 0; b < 10; ++b) {
      EXPECT_EQ(static_cast<std::int64_t>(q[static_cast<std::size_t>(b)]),
                expect.q[static_cast<std::size_t>(b)])
          << "annulus " << b << ", " << threads << " threads";
    }
  }
}

TEST(GenCgTest, TranspiledMatchesSerialReference) {
  // The dot products are serial inside `single` blocks and every loop is
  // statically scheduled, so a repeated solve at a fixed team size agrees
  // bit for bit; 3 threads make a team whose size is not a power of two.
  const zomp::npb::CgClass cls = zomp::npb::cg_class('m');
  zomp::npb::SparseMatrix a = zomp::npb::cg_make_matrix(cls.na, cls.nonzer);
  const zomp::npb::CgResult expect = zomp::npb::cg_serial(a, cls.niter, cls.shift);

  auto solve = [&](double& rnorm) {
    std::vector<double> x(static_cast<std::size_t>(a.n)), z(x), r(x), p(x),
        q(x);
    std::vector<double> rn(1, 0.0);
    const double zeta = mzgen_cg_mz::cg_run(
        slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values),
        slice_of(x), slice_of(z), slice_of(r), slice_of(p), slice_of(q),
        cls.niter, cls.shift, slice_of(rn));
    rnorm = rn[0];
    return zeta;
  };
  for (const int threads : {1, 2, 3, 4}) {
    zomp::set_num_threads(threads);
    double rnorm = 0.0, rnorm_again = 0.0;
    const double zeta = solve(rnorm);
    EXPECT_NEAR(zeta, expect.zeta, 1e-10) << threads << " threads";
    EXPECT_LT(rnorm, 1e-8) << threads << " threads";
    const double zeta_again = solve(rnorm_again);
    EXPECT_EQ(zeta_again, zeta) << threads << " threads";
    EXPECT_EQ(rnorm_again, rnorm) << threads << " threads";
  }
}

TEST(GenCgTest, SafeVariantAgrees) {
  const zomp::npb::CgClass cls = zomp::npb::cg_class('m');
  zomp::npb::SparseMatrix a = zomp::npb::cg_make_matrix(cls.na, cls.nonzer);
  std::vector<double> x(static_cast<std::size_t>(a.n)), z(x), r(x), p(x), q(x);
  std::vector<double> rnorm(1, 0.0);
  zomp::set_num_threads(2);
  const double fast = mzgen_cg_mz::cg_run(
      slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values), slice_of(x),
      slice_of(z), slice_of(r), slice_of(p), slice_of(q), cls.niter, cls.shift,
      slice_of(rnorm));
  const double safe = mzgen_cg_mz_safe::cg_run(
      slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values), slice_of(x),
      slice_of(z), slice_of(r), slice_of(p), slice_of(q), cls.niter, cls.shift,
      slice_of(rnorm));
  EXPECT_DOUBLE_EQ(fast, safe);
}

TEST(GenIsTest, TranspiledMatchesModularChecksum) {
  const zomp::npb::IsClass cls = zomp::npb::is_class('m');
  const auto keys0 = zomp::npb::is_make_keys(cls.total_keys, cls.max_key);
  const std::int64_t expect =
      zomp::npb::is_rank_checksum_mod(keys0, cls.max_key, cls.iterations);

  for (const int threads : {1, 2, 4}) {
    std::vector<std::int64_t> keys = keys0;
    std::vector<std::int64_t> count(static_cast<std::size_t>(cls.max_key));
    std::vector<std::int64_t> hist(static_cast<std::size_t>(cls.max_key) *
                                   static_cast<std::size_t>(threads));
    zomp::set_num_threads(threads);
    const std::int64_t got = mzgen_is_mz::is_run(
        slice_of(keys), cls.max_key, cls.iterations, slice_of(count),
        slice_of(hist));
    EXPECT_EQ(got, expect) << threads << " threads";
  }
}

TEST(GenMandelTest, TranspiledMatchesSerialReference) {
  const zomp::npb::MandelParams params{96, 96, 400};
  const zomp::npb::MandelResult expect = zomp::npb::mandel_serial(params);
  std::vector<std::int64_t> res(2, 0);
  zomp::set_num_threads(2);
  mzgen_mandel_mz::mandel_run(params.width, params.height, params.max_iter,
                              slice_of(res));
  EXPECT_EQ(res[0], expect.inside);
  EXPECT_EQ(static_cast<std::uint64_t>(res[1]), expect.iter_checksum);
}

TEST(GenMandelTest, SafeVariantAgrees) {
  std::vector<std::int64_t> fast(2, 0), safe(2, 0);
  zomp::set_num_threads(2);
  mzgen_mandel_mz::mandel_run(64, 64, 300, slice_of(fast));
  mzgen_mandel_mz_safe::mandel_run(64, 64, 300, slice_of(safe));
  EXPECT_EQ(fast, safe);
}

TEST(GenKernelsTest, ThreadCountDoesNotChangeResults) {
  // The transpiled Mandelbrot is integer-exact, so any team size must agree.
  std::vector<std::int64_t> base(2, 0);
  zomp::set_num_threads(1);
  mzgen_mandel_mz::mandel_run(80, 80, 300, slice_of(base));
  for (const int threads : {2, 3, 4}) {
    std::vector<std::int64_t> res(2, 0);
    zomp::set_num_threads(threads);
    mzgen_mandel_mz::mandel_run(80, 80, 300, slice_of(res));
    EXPECT_EQ(res, base) << threads;
  }
}

}  // namespace
