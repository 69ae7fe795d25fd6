// -O0 vs -O1 equivalence: the optimizer pipeline (fold, static-spec, fuse,
// dce-hoist — core/passes.h) must be invisible to results. Every kernel in
// src/npb/kernels is run four ways — interpreted at opt_level 0 and 1, and
// natively through the build-time -O0 (<kernel>_mz_o0) and default -O1
// (<kernel>_mz) transpiles — across {1, 2, 4, 8} threads, and all four must
// agree (with the serial host oracle pinning the integer kernels). Float
// kernels are compared within one backend (interp-vs-interp and
// native-vs-native are bit-exact by construction; interp-vs-native f64 sums
// are the province of backend_equivalence_test).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cg_mz.h"
#include "cg_mz_o0.h"
#include "core/pipeline.h"
#include "ep_mz.h"
#include "ep_mz_o0.h"
#include "interp/interp.h"
#include "is_mz.h"
#include "is_mz_o0.h"
#include "mandel_mz.h"
#include "mandel_mz_o0.h"
#include "npb/cg.h"
#include "npb/ep.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "reduce_matrix_mz.h"
#include "reduce_matrix_mz_o0.h"
#include "runtime/api.h"
#include "taskgraph_mz.h"
#include "taskgraph_mz_o0.h"

#ifndef ZOMP_SOURCE_DIR
#define ZOMP_SOURCE_DIR "."
#endif

namespace zomp::interp {
namespace {

std::string read_kernel(const char* name) {
  const std::string path =
      std::string(ZOMP_SOURCE_DIR) + "/src/npb/kernels/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compiles `kernel` at the given opt level (the library default is 0; mzc's
/// command-line default is 1 — this sweep pins both).
core::CompileResult compile_kernel(const char* kernel, int opt_level) {
  core::CompileOptions options;
  options.module_name = std::string("opt_equiv_o") + std::to_string(opt_level);
  options.opt_level = opt_level;
  return core::compile_source(read_kernel(kernel), options);
}

SliceVal make_slice_i64(std::int64_t n, std::int64_t fill = 0) {
  SliceVal s;
  s.data = std::make_shared<std::vector<Value>>(static_cast<std::size_t>(n),
                                                Value(fill));
  return s;
}

SliceVal make_slice_f64(std::int64_t n) {
  SliceVal s;
  s.data = std::make_shared<std::vector<Value>>(static_cast<std::size_t>(n),
                                                Value(0.0));
  return s;
}

std::vector<std::int64_t> to_i64(const SliceVal& s) {
  std::vector<std::int64_t> out;
  out.reserve(s.data->size());
  for (const Value& v : *s.data) out.push_back(v.as_i64());
  return out;
}

std::vector<double> to_f64(const SliceVal& s) {
  std::vector<double> out;
  out.reserve(s.data->size());
  for (const Value& v : *s.data) out.push_back(v.as_f64());
  return out;
}

template <typename T>
mz::Slice<T> slice_of(std::vector<T>& v) {
  return mz::Slice<T>{v.data(), static_cast<std::int64_t>(v.size())};
}

class OptLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(OptLevelSweep, MandelAgreesAcrossOptLevels) {
  const int threads = GetParam();
  constexpr std::int64_t w = 40, h = 40, iters = 150;
  zomp::set_num_threads(threads);

  std::vector<std::int64_t> interp_out[2];
  for (int level = 0; level <= 1; ++level) {
    auto compiled = compile_kernel("mandel.mz", level);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics_text();
    Interp interp(*compiled.module);
    SliceVal res = make_slice_i64(2);
    interp.call_by_name("mandel_run",
                        {Value(w), Value(h), Value(iters), Value(res)});
    interp_out[level] = to_i64(res);
  }
  EXPECT_EQ(interp_out[0], interp_out[1]) << threads << " threads";

  std::vector<std::int64_t> n0(2, 0), n1(2, 0);
  mzgen_mandel_mz_o0::mandel_run(w, h, iters, slice_of(n0));
  mzgen_mandel_mz::mandel_run(w, h, iters, slice_of(n1));
  EXPECT_EQ(n0, n1) << threads << " threads";
  EXPECT_EQ(interp_out[0], n1) << threads << " threads";

  const zomp::npb::MandelResult serial =
      zomp::npb::mandel_serial({w, h, iters});
  EXPECT_EQ(n1[0], serial.inside);
  EXPECT_EQ(static_cast<std::uint64_t>(n1[1]), serial.iter_checksum);
}

TEST_P(OptLevelSweep, IsAgreesAcrossOptLevels) {
  const int threads = GetParam();
  const zomp::npb::IsClass cls = zomp::npb::is_class('m');
  const auto keys0 = zomp::npb::is_make_keys(cls.total_keys, cls.max_key);
  const std::int64_t oracle =
      zomp::npb::is_rank_checksum_mod(keys0, cls.max_key, cls.iterations);
  zomp::set_num_threads(threads);

  std::int64_t interp_sum[2] = {0, 0};
  for (int level = 0; level <= 1; ++level) {
    auto compiled = compile_kernel("is.mz", level);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics_text();
    Interp interp(*compiled.module);
    SliceVal keys = make_slice_i64(cls.total_keys);
    for (std::int64_t i = 0; i < cls.total_keys; ++i) {
      (*keys.data)[static_cast<std::size_t>(i)] =
          Value(keys0[static_cast<std::size_t>(i)]);
    }
    SliceVal count = make_slice_i64(cls.max_key);
    SliceVal hist = make_slice_i64(cls.max_key * threads);
    interp_sum[level] =
        interp
            .call_by_name("is_run",
                          {Value(keys), Value(cls.max_key),
                           Value(static_cast<std::int64_t>(cls.iterations)),
                           Value(count), Value(hist)})
            .as_i64();
  }
  EXPECT_EQ(interp_sum[0], interp_sum[1]) << threads << " threads";

  std::int64_t native_sum[2] = {0, 0};
  for (int level = 0; level <= 1; ++level) {
    std::vector<std::int64_t> nkeys = keys0;
    std::vector<std::int64_t> ncount(static_cast<std::size_t>(cls.max_key));
    std::vector<std::int64_t> nhist(
        static_cast<std::size_t>(cls.max_key * threads));
    native_sum[level] =
        level == 0 ? mzgen_is_mz_o0::is_run(slice_of(nkeys), cls.max_key,
                                            cls.iterations, slice_of(ncount),
                                            slice_of(nhist))
                   : mzgen_is_mz::is_run(slice_of(nkeys), cls.max_key,
                                         cls.iterations, slice_of(ncount),
                                         slice_of(nhist));
  }
  EXPECT_EQ(native_sum[0], native_sum[1]) << threads << " threads";
  EXPECT_EQ(interp_sum[0], native_sum[1]) << threads << " threads";
  EXPECT_EQ(native_sum[1], oracle) << threads << " threads";
}

TEST_P(OptLevelSweep, EpAgreesAcrossOptLevels) {
  const int threads = GetParam();
  zomp::set_num_threads(threads);

  // ep_run fixes 2^16 pairs per block, far too many to interpret — the
  // interpreted O0-vs-O1 comparison runs on the kernel's arithmetic core
  // instead (randlc seed-chain + ipow46), which the fold pass does visit.
  double interp_chain[2];
  for (int level = 0; level <= 1; ++level) {
    auto compiled = compile_kernel("ep.mz", level);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics_text();
    Interp interp(*compiled.module);
    double x = 0.0;
    for (const std::int64_t k : {1, 7, 381, 1000}) {
      x += interp.call_by_name("ipow46", {Value(1220703125.0), Value(k)})
               .as_f64();
    }
    interp_chain[level] = x;
  }
  EXPECT_EQ(interp_chain[0], interp_chain[1]) << threads << " threads";

  // Native at the class the gen tests use; both transpiles of the same
  // kernel share codegen flags, so the sums must match bit for bit.
  constexpr std::int64_t m_native = 18;  // 4 blocks of parallel work
  std::vector<double> q0(10, 0.0), res0(3, 0.0), q1(10, 0.0), res1(3, 0.0);
  mzgen_ep_mz_o0::ep_run(m_native, slice_of(q0), slice_of(res0));
  mzgen_ep_mz::ep_run(m_native, slice_of(q1), slice_of(res1));
  EXPECT_EQ(q0, q1) << threads << " threads";
  EXPECT_EQ(res0, res1) << threads << " threads";

  const zomp::npb::EpResult expect = zomp::npb::ep_serial(m_native);
  EXPECT_NEAR(res1[0], expect.sx, 1e-7);
  EXPECT_NEAR(res1[1], expect.sy, 1e-7);
  EXPECT_EQ(static_cast<std::int64_t>(res1[2]), expect.pairs_in_disc);
}

TEST_P(OptLevelSweep, CgAgreesAcrossOptLevels) {
  const int threads = GetParam();
  const zomp::npb::CgClass cls = zomp::npb::cg_class('m');
  zomp::npb::SparseMatrix a = zomp::npb::cg_make_matrix(cls.na, cls.nonzer);
  zomp::set_num_threads(threads);

  std::vector<double> x(static_cast<std::size_t>(a.n)), z(x), r(x), p(x), q(x);
  std::vector<double> rnorm0(1, 0.0), rnorm1(1, 0.0);
  const double zeta0 = mzgen_cg_mz_o0::cg_run(
      slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values), slice_of(x),
      slice_of(z), slice_of(r), slice_of(p), slice_of(q), cls.niter, cls.shift,
      slice_of(rnorm0));
  const double zeta1 = mzgen_cg_mz::cg_run(
      slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values), slice_of(x),
      slice_of(z), slice_of(r), slice_of(p), slice_of(q), cls.niter, cls.shift,
      slice_of(rnorm1));
  // Same backend, same team size, same reduction tree: bit-exact.
  EXPECT_EQ(zeta0, zeta1) << threads << " threads";
  EXPECT_EQ(rnorm0[0], rnorm1[0]) << threads << " threads";
}

TEST_P(OptLevelSweep, ReduceMatrixAgreesAcrossOptLevels) {
  const int threads = GetParam();
  constexpr std::int64_t n = 41, h = 9, w = 7, a3 = 7, b3 = 5, c3 = 4;
  zomp::set_num_threads(threads);

  struct Out {
    std::vector<std::int64_t> ops, c2, c3, sa, mi, ms, si, sm, so, sh;
    std::vector<double> f64s, mf, sf;
  };
  Out interp_out[2];
  for (int level = 0; level <= 1; ++level) {
    auto compiled = compile_kernel("reduce_matrix.mz", level);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics_text();
    Interp interp(*compiled.module);
    Out& o = interp_out[level];

    SliceVal ops = make_slice_i64(10);
    interp.call_by_name("red_ops_run", {Value(n), Value(ops)});
    o.ops = to_i64(ops);

    SliceVal f64s = make_slice_f64(4);
    interp.call_by_name("red_f64_run", {Value(n), Value(f64s)});
    o.f64s = to_f64(f64s);

    SliceVal c2 = make_slice_i64(1);
    interp.call_by_name("collapse2_run", {Value(h), Value(w), Value(c2)});
    o.c2 = to_i64(c2);

    SliceVal c3out = make_slice_i64(2);
    interp.call_by_name("collapse3_run",
                        {Value(a3), Value(b3), Value(c3), Value(c3out)});
    o.c3 = to_i64(c3out);

    SliceVal sa = make_slice_i64(2);
    interp.call_by_name("standalone_run", {Value(n), Value(w), Value(sa)});
    o.sa = to_i64(sa);

    SliceVal mi = make_slice_i64(3);
    SliceVal mf = make_slice_f64(1);
    interp.call_by_name("multi_red_run", {Value(n), Value(mi), Value(mf)});
    o.mi = to_i64(mi);
    o.mf = to_f64(mf);

    SliceVal ms = make_slice_i64(3);
    interp.call_by_name("multi_red_standalone_run", {Value(n), Value(ms)});
    o.ms = to_i64(ms);

    SliceVal sf = make_slice_f64(8);
    SliceVal si = make_slice_i64(4, 11);
    SliceVal sm = make_slice_i64(6, -3);
    SliceVal so = make_slice_i64(2);
    interp.call_by_name("section_run", {Value(n), Value(sf), Value(si),
                                        Value(sm), Value(so)});
    o.sf = to_f64(sf);
    o.si = to_i64(si);
    o.sm = to_i64(sm);
    o.so = to_i64(so);
    SliceVal sh = make_slice_i64(5, 2);
    interp.call_by_name("section_standalone_run", {Value(n), Value(sh)});
    o.sh = to_i64(sh);
  }
  EXPECT_EQ(interp_out[0].ops, interp_out[1].ops) << threads << " threads";
  EXPECT_EQ(interp_out[0].f64s, interp_out[1].f64s) << threads << " threads";
  EXPECT_EQ(interp_out[0].c2, interp_out[1].c2) << threads << " threads";
  EXPECT_EQ(interp_out[0].c3, interp_out[1].c3) << threads << " threads";
  EXPECT_EQ(interp_out[0].sa, interp_out[1].sa) << threads << " threads";
  EXPECT_EQ(interp_out[0].mi, interp_out[1].mi) << threads << " threads";
  EXPECT_EQ(interp_out[0].mf, interp_out[1].mf) << threads << " threads";
  EXPECT_EQ(interp_out[0].ms, interp_out[1].ms) << threads << " threads";
  EXPECT_EQ(interp_out[0].sf, interp_out[1].sf) << threads << " threads";
  EXPECT_EQ(interp_out[0].si, interp_out[1].si) << threads << " threads";
  EXPECT_EQ(interp_out[0].sm, interp_out[1].sm) << threads << " threads";
  EXPECT_EQ(interp_out[0].so, interp_out[1].so) << threads << " threads";
  EXPECT_EQ(interp_out[0].sh, interp_out[1].sh) << threads << " threads";

  // The native pair, across every entry point.
  {
    std::vector<std::int64_t> ops0(10, 0), ops1(10, 0);
    mzgen_reduce_matrix_mz_o0::red_ops_run(n, slice_of(ops0));
    mzgen_reduce_matrix_mz::red_ops_run(n, slice_of(ops1));
    EXPECT_EQ(ops0, ops1) << threads << " threads";
    EXPECT_EQ(interp_out[0].ops, ops1) << threads << " threads";

    std::vector<double> f0(4, 0.0), f1(4, 0.0);
    mzgen_reduce_matrix_mz_o0::red_f64_run(n, slice_of(f0));
    mzgen_reduce_matrix_mz::red_f64_run(n, slice_of(f1));
    EXPECT_EQ(f0, f1) << threads << " threads";

    std::vector<std::int64_t> c20(1, 0), c21(1, 0);
    mzgen_reduce_matrix_mz_o0::collapse2_run(h, w, slice_of(c20));
    mzgen_reduce_matrix_mz::collapse2_run(h, w, slice_of(c21));
    EXPECT_EQ(c20, c21) << threads << " threads";
    EXPECT_EQ(interp_out[0].c2, c21) << threads << " threads";

    std::vector<std::int64_t> c30(2, 0), c31(2, 0);
    mzgen_reduce_matrix_mz_o0::collapse3_run(a3, b3, c3, slice_of(c30));
    mzgen_reduce_matrix_mz::collapse3_run(a3, b3, c3, slice_of(c31));
    EXPECT_EQ(c30, c31) << threads << " threads";

    std::vector<std::int64_t> sa0(2, 0), sa1(2, 0);
    mzgen_reduce_matrix_mz_o0::standalone_run(n, w, slice_of(sa0));
    mzgen_reduce_matrix_mz::standalone_run(n, w, slice_of(sa1));
    EXPECT_EQ(sa0, sa1) << threads << " threads";
    EXPECT_EQ(interp_out[0].sa, sa1) << threads << " threads";

    std::vector<std::int64_t> mi0(3, 0), mi1(3, 0);
    std::vector<double> mf0(1, 0.0), mf1(1, 0.0);
    mzgen_reduce_matrix_mz_o0::multi_red_run(n, slice_of(mi0), slice_of(mf0));
    mzgen_reduce_matrix_mz::multi_red_run(n, slice_of(mi1), slice_of(mf1));
    EXPECT_EQ(mi0, mi1) << threads << " threads";
    EXPECT_EQ(mf0, mf1) << threads << " threads";
    EXPECT_EQ(interp_out[0].mi, mi1) << threads << " threads";

    std::vector<std::int64_t> ms0(3, 0), ms1(3, 0);
    mzgen_reduce_matrix_mz_o0::multi_red_standalone_run(n, slice_of(ms0));
    mzgen_reduce_matrix_mz::multi_red_standalone_run(n, slice_of(ms1));
    EXPECT_EQ(ms0, ms1) << threads << " threads";
    EXPECT_EQ(interp_out[0].ms, ms1) << threads << " threads";

    // Sections; the f64 summands are exact integers, so even the f64
    // section agrees across backends bit for bit.
    std::vector<double> sf0(8, 0.0), sf1(8, 0.0);
    std::vector<std::int64_t> si0(4, 11), si1(4, 11), sm0(6, -3), sm1(6, -3),
        so0(2, 0), so1(2, 0), sh0(5, 2), sh1(5, 2);
    mzgen_reduce_matrix_mz_o0::section_run(n, slice_of(sf0), slice_of(si0),
                                           slice_of(sm0), slice_of(so0));
    mzgen_reduce_matrix_mz::section_run(n, slice_of(sf1), slice_of(si1),
                                        slice_of(sm1), slice_of(so1));
    mzgen_reduce_matrix_mz_o0::section_standalone_run(n, slice_of(sh0));
    mzgen_reduce_matrix_mz::section_standalone_run(n, slice_of(sh1));
    EXPECT_EQ(sf0, sf1) << threads << " threads";
    EXPECT_EQ(si0, si1) << threads << " threads";
    EXPECT_EQ(sm0, sm1) << threads << " threads";
    EXPECT_EQ(so0, so1) << threads << " threads";
    EXPECT_EQ(sh0, sh1) << threads << " threads";
    EXPECT_EQ(interp_out[0].sf, sf1) << threads << " threads";
    EXPECT_EQ(interp_out[0].si, si1) << threads << " threads";
    EXPECT_EQ(interp_out[0].sm, sm1) << threads << " threads";
    EXPECT_EQ(interp_out[0].so, so1) << threads << " threads";
    EXPECT_EQ(interp_out[0].sh, sh1) << threads << " threads";
  }
}

TEST_P(OptLevelSweep, TaskgraphAgreesAcrossOptLevels) {
  const int threads = GetParam();
  zomp::set_num_threads(threads);

  constexpr std::int64_t nb = 5, bs = 8, nwf = nb * bs;
  std::vector<std::int64_t> bvec(nwf);
  for (std::int64_t i = 0; i < nwf; ++i) bvec[i] = (i * 17 % 23) - 11;

  std::int64_t interp_sums[2][4];
  for (int level = 0; level <= 1; ++level) {
    auto compiled = compile_kernel("taskgraph.mz", level);
    ASSERT_TRUE(compiled.ok) << compiled.diagnostics_text();
    Interp interp(*compiled.module);

    SliceVal ib = make_slice_i64(nwf);
    for (std::int64_t i = 0; i < nwf; ++i) {
      (*ib.data)[static_cast<std::size_t>(i)] =
          Value(bvec[static_cast<std::size_t>(i)]);
    }
    SliceVal ix = make_slice_i64(nwf);
    interp_sums[level][0] =
        interp
            .call_by_name("wavefront_run",
                          {Value(nb), Value(bs), Value(ib), Value(ix)})
            .as_i64();

    SliceVal tl = make_slice_i64(53);
    interp_sums[level][1] =
        interp
            .call_by_name("taskloop_run",
                          {Value(std::int64_t{53}), Value(std::int64_t{3}),
                           Value(std::int64_t{7}), Value(tl)})
            .as_i64();

    SliceVal tg = make_slice_i64(2);
    interp_sums[level][2] =
        interp.call_by_name("taskgroup_run", {Value(std::int64_t{20}),
                                              Value(tg)})
            .as_i64();

    SliceVal cl = make_slice_i64(2);
    interp_sums[level][3] =
        interp.call_by_name("clauses_run", {Value(std::int64_t{5}), Value(cl)})
            .as_i64();
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(interp_sums[0][k], interp_sums[1][k])
        << "driver " << k << " at " << threads << " threads";
  }

  std::int64_t native_sums[2][4];
  for (int level = 0; level <= 1; ++level) {
    std::vector<std::int64_t> b = bvec, xs(nwf, 0), tl(53, 0), tg(2, 0),
                              cl(2, 0);
    if (level == 0) {
      native_sums[level][0] =
          mzgen_taskgraph_mz_o0::wavefront_run(nb, bs, slice_of(b),
                                               slice_of(xs));
      native_sums[level][1] =
          mzgen_taskgraph_mz_o0::taskloop_run(53, 3, 7, slice_of(tl));
      native_sums[level][2] = mzgen_taskgraph_mz_o0::taskgroup_run(
          20, slice_of(tg));
      native_sums[level][3] = mzgen_taskgraph_mz_o0::clauses_run(
          5, slice_of(cl));
    } else {
      native_sums[level][0] =
          mzgen_taskgraph_mz::wavefront_run(nb, bs, slice_of(b), slice_of(xs));
      native_sums[level][1] =
          mzgen_taskgraph_mz::taskloop_run(53, 3, 7, slice_of(tl));
      native_sums[level][2] = mzgen_taskgraph_mz::taskgroup_run(20,
                                                                slice_of(tg));
      native_sums[level][3] = mzgen_taskgraph_mz::clauses_run(5, slice_of(cl));
    }
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(native_sums[0][k], native_sums[1][k])
        << "driver " << k << " at " << threads << " threads";
    EXPECT_EQ(interp_sums[0][k], native_sums[1][k])
        << "driver " << k << " at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OptLevelSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace zomp::interp
