// Cross-backend equivalence: the interpreter and the C++ code generator are
// two independent consumers of the transformed AST; running the *same .mz
// kernel files* that the build transpiled natively must produce identical
// results through the interpreter. This pins the two backends to one
// semantics — any divergence in lowering (capture modes, schedule handling,
// reduction identities) fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "interp/interp.h"
#include "is_mz.h"
#include "mandel_mz.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "npb/nprandom.h"
#include "reduce_matrix_mz.h"
#include "runtime/api.h"
#include "taskgraph_mz.h"

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

TEST(BackendEquivalenceTest, MandelKernelInterpretedVsTranspiled) {
  auto result = core::compile_source(read_kernel("mandel.mz"),
                                     {true, "mandel_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  constexpr std::int64_t w = 48, h = 48, iters = 200;

  // Interpreted execution of the transformed kernel (parallel, 2 threads).
  Interp interp(*result.module);
  SliceVal res = make_slice_i64(2);
  zomp::set_num_threads(2);
  interp.call_by_name("mandel_run", {Value(w), Value(h), Value(iters),
                                     Value(res)});
  const std::int64_t interp_inside = (*res.data)[0].as_i64();
  const std::int64_t interp_checksum = (*res.data)[1].as_i64();

  // Natively transpiled execution of the same file.
  std::vector<std::int64_t> native(2, 0);
  mzgen_mandel_mz::mandel_run(
      w, h, iters, mz::Slice<std::int64_t>{native.data(), 2});

  EXPECT_EQ(interp_inside, native[0]);
  EXPECT_EQ(interp_checksum, native[1]);

  // And both must agree with the hand-written serial reference.
  zomp::npb::MandelParams params{w, h, iters};
  const zomp::npb::MandelResult serial = zomp::npb::mandel_serial(params);
  EXPECT_EQ(interp_inside, serial.inside);
  EXPECT_EQ(static_cast<std::uint64_t>(interp_checksum), serial.iter_checksum);
}

TEST(BackendEquivalenceTest, IsKernelInterpretedVsTranspiled) {
  auto result =
      core::compile_source(read_kernel("is.mz"), {true, "is_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  const zomp::npb::IsClass cls = zomp::npb::is_class('m');
  const auto keys0 = zomp::npb::is_make_keys(cls.total_keys, cls.max_key);

  constexpr int kThreads = 2;
  zomp::set_num_threads(kThreads);

  // Interpreted run.
  Interp interp(*result.module);
  SliceVal keys = make_slice_i64(cls.total_keys);
  for (std::int64_t i = 0; i < cls.total_keys; ++i) {
    (*keys.data)[static_cast<std::size_t>(i)] =
        Value(keys0[static_cast<std::size_t>(i)]);
  }
  SliceVal count = make_slice_i64(cls.max_key);
  SliceVal hist = make_slice_i64(cls.max_key * kThreads);
  const Value interp_checksum = interp.call_by_name(
      "is_run", {Value(keys), Value(cls.max_key),
                 Value(static_cast<std::int64_t>(cls.iterations)), Value(count),
                 Value(hist)});

  // Transpiled run on fresh buffers.
  std::vector<std::int64_t> nkeys = keys0;
  std::vector<std::int64_t> ncount(static_cast<std::size_t>(cls.max_key));
  std::vector<std::int64_t> nhist(
      static_cast<std::size_t>(cls.max_key * kThreads));
  const std::int64_t native_checksum = mzgen_is_mz::is_run(
      mz::Slice<std::int64_t>{nkeys.data(),
                              static_cast<std::int64_t>(nkeys.size())},
      cls.max_key, cls.iterations,
      mz::Slice<std::int64_t>{ncount.data(),
                              static_cast<std::int64_t>(ncount.size())},
      mz::Slice<std::int64_t>{nhist.data(),
                              static_cast<std::int64_t>(nhist.size())});

  EXPECT_EQ(interp_checksum.as_i64(), native_checksum);
  // Both agree with the host-side modular-checksum oracle.
  EXPECT_EQ(native_checksum, zomp::npb::is_rank_checksum_mod(
                                 keys0, cls.max_key, cls.iterations));
}

// -- Equivalence under every schedule kind ----------------------------------
//
// The scheduling substrate (work-stealing deques, batched dispatch cursor)
// must be invisible to results: interp and codegen runs of the same kernels
// have to agree under schedule(static), schedule(dynamic,1) and
// schedule(guided) alike.

struct ScheduleSweepCase {
  zomp::rt::ScheduleKind kind;
  std::int64_t chunk;
  const char* clause;  // source-level spelling, for the mandel rewrite
};

class BackendScheduleSweep : public ::testing::TestWithParam<ScheduleSweepCase> {};

TEST_P(BackendScheduleSweep, IsKernelAgreesUnderScheduleIcv) {
  // is.mz's loops say schedule(runtime); sweeping run-sched-var runs the
  // same interpreted and transpiled code under each schedule kind.
  const ScheduleSweepCase& c = GetParam();
  auto result = core::compile_source(read_kernel("is.mz"), {true, "is_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  const zomp::npb::IsClass cls = zomp::npb::is_class('m');
  const auto keys0 = zomp::npb::is_make_keys(cls.total_keys, cls.max_key);
  const std::int64_t oracle =
      zomp::npb::is_rank_checksum_mod(keys0, cls.max_key, cls.iterations);

  constexpr int kThreads = 3;
  zomp::set_num_threads(kThreads);
  zomp::set_schedule({c.kind, c.chunk});

  Interp interp(*result.module);
  SliceVal keys = make_slice_i64(cls.total_keys);
  for (std::int64_t i = 0; i < cls.total_keys; ++i) {
    (*keys.data)[static_cast<std::size_t>(i)] =
        Value(keys0[static_cast<std::size_t>(i)]);
  }
  SliceVal count = make_slice_i64(cls.max_key);
  SliceVal hist = make_slice_i64(cls.max_key * kThreads);
  const Value interp_checksum = interp.call_by_name(
      "is_run", {Value(keys), Value(cls.max_key),
                 Value(static_cast<std::int64_t>(cls.iterations)), Value(count),
                 Value(hist)});

  std::vector<std::int64_t> nkeys = keys0;
  std::vector<std::int64_t> ncount(static_cast<std::size_t>(cls.max_key));
  std::vector<std::int64_t> nhist(
      static_cast<std::size_t>(cls.max_key * kThreads));
  const std::int64_t native_checksum = mzgen_is_mz::is_run(
      mz::Slice<std::int64_t>{nkeys.data(),
                              static_cast<std::int64_t>(nkeys.size())},
      cls.max_key, cls.iterations,
      mz::Slice<std::int64_t>{ncount.data(),
                              static_cast<std::int64_t>(ncount.size())},
      mz::Slice<std::int64_t>{nhist.data(),
                              static_cast<std::int64_t>(nhist.size())});

  zomp::set_schedule({zomp::rt::ScheduleKind::kStatic, 0});
  EXPECT_EQ(interp_checksum.as_i64(), native_checksum) << c.clause;
  EXPECT_EQ(native_checksum, oracle) << c.clause;
}

TEST_P(BackendScheduleSweep, MandelKernelAgreesUnderRewrittenSchedule) {
  // mandel.mz fixes schedule(dynamic, 1); rewriting the clause in source and
  // interpreting the result must still match the transpiled original —
  // integer-exact results cannot depend on the schedule.
  const ScheduleSweepCase& c = GetParam();
  std::string source = read_kernel("mandel.mz");
  const std::string fixed = "schedule(dynamic, 1)";
  const auto at = source.find(fixed);
  ASSERT_NE(at, std::string::npos) << "mandel.mz lost its schedule clause";
  source.replace(at, fixed.size(), c.clause);

  auto result = core::compile_source(source, {true, "mandel_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  constexpr std::int64_t w = 40, h = 40, iters = 150;
  zomp::set_num_threads(3);

  Interp interp(*result.module);
  SliceVal res = make_slice_i64(2);
  interp.call_by_name("mandel_run",
                      {Value(w), Value(h), Value(iters), Value(res)});

  std::vector<std::int64_t> native(2, 0);
  mzgen_mandel_mz::mandel_run(w, h, iters,
                              mz::Slice<std::int64_t>{native.data(), 2});

  EXPECT_EQ((*res.data)[0].as_i64(), native[0]) << c.clause;
  EXPECT_EQ((*res.data)[1].as_i64(), native[1]) << c.clause;
}

// -- proc_bind sweep ---------------------------------------------------------
//
// Injecting each proc_bind kind into mandel.mz's parallel-for directive and
// interpreting must (a) compile — the clause rides the whole front-end path —
// and (b) leave the integer-exact results untouched: placement moves threads,
// never work. Runs at 4 threads so close/spread exercise real partitions on
// multi-core hosts, and degrades to the single-place fallback elsewhere.
TEST(BackendEquivalenceTest, MandelKernelAgreesUnderProcBindSweep) {
  const std::string original = read_kernel("mandel.mz");
  const std::string anchor = "//#omp parallel for";

  constexpr std::int64_t w = 40, h = 40, iters = 150;
  std::vector<std::int64_t> native(2, 0);
  mzgen_mandel_mz::mandel_run(w, h, iters,
                              mz::Slice<std::int64_t>{native.data(), 2});

  for (const char* clause :
       {"proc_bind(primary)", "proc_bind(close)", "proc_bind(spread)",
        "proc_bind(master)"}) {
    std::string source = original;
    const auto at = source.find(anchor);
    ASSERT_NE(at, std::string::npos);
    source.insert(at + anchor.size(), std::string(" ") + clause);

    auto result = core::compile_source(source, {true, "mandel_bind_interp"});
    ASSERT_TRUE(result.ok) << clause << ": " << result.diagnostics_text();

    zomp::set_num_threads(4);
    Interp interp(*result.module);
    SliceVal res = make_slice_i64(2);
    interp.call_by_name("mandel_run",
                        {Value(w), Value(h), Value(iters), Value(res)});
    EXPECT_EQ((*res.data)[0].as_i64(), native[0]) << clause;
    EXPECT_EQ((*res.data)[1].as_i64(), native[1]) << clause;
  }
}

// -- Reduction-operator × schedule × collapse-depth matrix -------------------
//
// reduce_matrix.mz exercises all 10 ReduceOps, the order-insensitive f64
// operators, collapse(2) and collapse(3) nests (with lastprivate), and
// standalone / nowait worksharing reductions inside an explicit region.
// Its loops all say schedule(runtime), so each sweep case runs the full
// matrix under that schedule kind in *both* backends and checks them
// against serial host oracles.

struct MatrixOracle {
  std::int64_t ops[10];
  double f64s[4];
  std::int64_t collapse2;
  std::int64_t collapse3_acc;
  std::int64_t collapse3_last;
  std::int64_t standalone_a;
  std::int64_t standalone_b;
};

MatrixOracle serial_matrix_oracle(std::int64_t n, std::int64_t h,
                                  std::int64_t w, std::int64_t a,
                                  std::int64_t b, std::int64_t c) {
  MatrixOracle o{};
  std::int64_t& add = o.ops[0] = 0;
  std::int64_t& sub = o.ops[1] = 0;
  std::int64_t& mul = o.ops[2] = 1;
  std::int64_t& mn = o.ops[3] = 1000000;
  std::int64_t& mx = o.ops[4] = -1000000;
  std::int64_t& band = o.ops[5] = -1;
  std::int64_t& bor = o.ops[6] = 0;
  std::int64_t& bxor = o.ops[7] = 0;
  std::int64_t& land = o.ops[8] = 1;
  std::int64_t& lor = o.ops[9] = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    add += i * 3 + 1;
    sub -= i + 2;
    if (i % 7 == 0) mul *= 2;
    mn = std::min(mn, ((i * 37) % 101) - 50);
    mx = std::max(mx, ((i * 53) % 89) - 40);
    band &= 1023 - ((i % 4) * 5);
    bor |= std::int64_t{1} << ((i * 11) % 60);
    bxor ^= (i * 97) % 513;
    if (i % 5 == 3) land = 0;
    if (i % 17 == 11) lor = 1;
  }
  o.f64s[0] = 0.0;
  o.f64s[1] = 1000000.0;
  o.f64s[2] = -1000000.0;
  o.f64s[3] = 1.0;
  for (std::int64_t i = 0; i < n; ++i) {
    o.f64s[0] += static_cast<double>(i * 2 + 1);
    o.f64s[1] = std::min(o.f64s[1], static_cast<double>(((i * 29) % 97) - 45));
    o.f64s[2] = std::max(o.f64s[2], static_cast<double>(((i * 41) % 83) - 30));
    if (i % 9 == 0) o.f64s[3] *= 2.0;
  }
  o.collapse2 = 0;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) o.collapse2 += y * 1000 + x * 7;
  }
  o.collapse3_acc = 0;
  o.collapse3_last = 0;
  for (std::int64_t i = 2; i < a; ++i) {
    for (std::int64_t j = 1; j < b; ++j) {
      for (std::int64_t k = 0; k < c; ++k) {
        o.collapse3_acc += i * 10000 + j * 100 + k;
        o.collapse3_last = i * 1000000 + j * 1000 + k;
      }
    }
  }
  o.standalone_a = 0;
  o.standalone_b = 0;
  for (std::int64_t i = 0; i < n; ++i) o.standalone_a += i * 3;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < w; ++j) {
      o.standalone_b = std::max(o.standalone_b, i * j);
    }
  }
  return o;
}

TEST_P(BackendScheduleSweep, ReductionCollapseMatrixAgrees) {
  const ScheduleSweepCase& cs = GetParam();
  auto result = core::compile_source(read_kernel("reduce_matrix.mz"),
                                     {true, "reduce_matrix_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  constexpr std::int64_t n = 41, h = 9, w = 7, a3 = 7, b3 = 5, c3 = 4;
  const MatrixOracle oracle = serial_matrix_oracle(n, h, w, a3, b3, c3);

  zomp::set_num_threads(3);
  zomp::set_schedule({cs.kind, cs.chunk});

  Interp interp(*result.module);

  // red_ops_run — all 10 i64 reduction operators.
  SliceVal ops = make_slice_i64(10);
  interp.call_by_name("red_ops_run", {Value(n), Value(ops)});
  std::vector<std::int64_t> nops(10, 0);
  mzgen_reduce_matrix_mz::red_ops_run(
      n, mz::Slice<std::int64_t>{nops.data(), 10});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*ops.data)[static_cast<std::size_t>(i)].as_i64(), nops[i])
        << cs.clause << " op " << i;
    EXPECT_EQ(nops[i], oracle.ops[i]) << cs.clause << " op " << i;
  }

  // red_f64_run — order-insensitive f64 operators, bit-exact.
  SliceVal f64s = make_slice_f64(4);
  interp.call_by_name("red_f64_run", {Value(n), Value(f64s)});
  std::vector<double> nf64(4, 0.0);
  mzgen_reduce_matrix_mz::red_f64_run(n, mz::Slice<double>{nf64.data(), 4});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*f64s.data)[static_cast<std::size_t>(i)].as_f64(), nf64[i])
        << cs.clause << " f64 op " << i;
    EXPECT_EQ(nf64[i], oracle.f64s[i]) << cs.clause << " f64 op " << i;
  }

  // collapse2_run / collapse3_run — linearized nests, both backends.
  SliceVal c2out = make_slice_i64(1);
  interp.call_by_name("collapse2_run", {Value(h), Value(w), Value(c2out)});
  std::vector<std::int64_t> nc2(1, 0);
  mzgen_reduce_matrix_mz::collapse2_run(h, w,
                                        mz::Slice<std::int64_t>{nc2.data(), 1});
  EXPECT_EQ((*c2out.data)[0].as_i64(), nc2[0]) << cs.clause;
  EXPECT_EQ(nc2[0], oracle.collapse2) << cs.clause;

  SliceVal c3out = make_slice_i64(2);
  interp.call_by_name("collapse3_run",
                      {Value(a3), Value(b3), Value(c3), Value(c3out)});
  std::vector<std::int64_t> nc3(2, 0);
  mzgen_reduce_matrix_mz::collapse3_run(a3, b3, c3,
                                        mz::Slice<std::int64_t>{nc3.data(), 2});
  EXPECT_EQ((*c3out.data)[0].as_i64(), nc3[0]) << cs.clause;
  EXPECT_EQ((*c3out.data)[1].as_i64(), nc3[1]) << cs.clause;
  EXPECT_EQ(nc3[0], oracle.collapse3_acc) << cs.clause;
  EXPECT_EQ(nc3[1], oracle.collapse3_last) << cs.clause;

  // standalone_run — nowait + collapsed standalone loops in one region.
  SliceVal sa = make_slice_i64(2);
  interp.call_by_name("standalone_run", {Value(n), Value(w), Value(sa)});
  std::vector<std::int64_t> nsa(2, 0);
  mzgen_reduce_matrix_mz::standalone_run(
      n, w, mz::Slice<std::int64_t>{nsa.data(), 2});
  EXPECT_EQ((*sa.data)[0].as_i64(), nsa[0]) << cs.clause;
  EXPECT_EQ((*sa.data)[1].as_i64(), nsa[1]) << cs.clause;
  EXPECT_EQ(nsa[0], oracle.standalone_a) << cs.clause;
  EXPECT_EQ(nsa[1], oracle.standalone_b) << cs.clause;

  // multi_red_run — four reduction clauses on ONE construct: both backends
  // pack the partials into a single rendezvous (Stmt::red_pack). Verified
  // against a serial oracle computed here.
  {
    SliceVal mi = make_slice_i64(3);
    SliceVal mf = make_slice_f64(1);
    interp.call_by_name("multi_red_run", {Value(n), Value(mi), Value(mf)});
    std::vector<std::int64_t> nmi(3, 0);
    std::vector<double> nmf(1, 0.0);
    mzgen_reduce_matrix_mz::multi_red_run(
        n, mz::Slice<std::int64_t>{nmi.data(), 3},
        mz::Slice<double>{nmf.data(), 1});
    std::int64_t os = 0, omx = -1000000, omn = 1000000;
    double ofs = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      os += i * 5 + 2;
      omx = std::max(omx, ((i * 67) % 127) - 60);
      omn = std::min(omn, ((i * 31) % 113) - 55);
      ofs += static_cast<double>(i * 4 + 3);
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ((*mi.data)[static_cast<std::size_t>(i)].as_i64(), nmi[i])
          << cs.clause << " packed var " << i;
    }
    EXPECT_EQ((*mf.data)[0].as_f64(), nmf[0]) << cs.clause;
    EXPECT_EQ(nmi[0], os) << cs.clause;
    EXPECT_EQ(nmi[1], omx) << cs.clause;
    EXPECT_EQ(nmi[2], omn) << cs.clause;
    EXPECT_EQ(nmf[0], ofs) << cs.clause;
  }

  // multi_red_standalone_run — the pack through a standalone `omp for`
  // chained after a nowait loop.
  {
    SliceVal ms = make_slice_i64(3);
    interp.call_by_name("multi_red_standalone_run", {Value(n), Value(ms)});
    std::vector<std::int64_t> nms(3, 0);
    mzgen_reduce_matrix_mz::multi_red_standalone_run(
        n, mz::Slice<std::int64_t>{nms.data(), 3});
    std::int64_t owarm = 0, oa = 0, ob = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      owarm += i;
      oa += i * 2 + 1;
      ob = std::max(ob, (i * 19) % 73);
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ((*ms.data)[static_cast<std::size_t>(i)].as_i64(), nms[i])
          << cs.clause << " standalone packed var " << i;
    }
    EXPECT_EQ(nms[0], owarm) << cs.clause;
    EXPECT_EQ(nms[1], oa) << cs.clause;
    EXPECT_EQ(nms[2], ob) << cs.clause;
  }

  zomp::set_schedule({zomp::rt::ScheduleKind::kStatic, 0});
}

// Array-section reductions (reduce_matrix.mz section_run /
// section_standalone_run): the sections start from seeded values, so the
// oracle checks that each fold combines into the caller's data rather than
// overwriting it.
struct SectionOracle {
  std::vector<double> hf;
  std::vector<std::int64_t> hi, hm, out, h;
};

SectionOracle section_seed() {
  SectionOracle o;
  for (int k = 0; k < 8; ++k) o.hf.push_back(0.5 * k);
  for (int k = 0; k < 4; ++k) o.hi.push_back(100 * k);
  for (int k = 0; k < 6; ++k) o.hm.push_back(50 - 25 * k);
  o.out = {0, 0};
  for (int k = 0; k < 5; ++k) o.h.push_back(7 - k);
  return o;
}

SectionOracle serial_section_oracle(std::int64_t n) {
  SectionOracle o = section_seed();
  std::int64_t s = 0, mx = -1000000;
  for (std::int64_t i = 0; i < n; ++i) {
    s += i * 2 + 1;
    mx = std::max(mx, ((i * 37) % 101) - 50);
    o.hf[static_cast<std::size_t>((i * 7) % 8)] += static_cast<double>(i + 1);
    o.hi[static_cast<std::size_t>(i % 4)] += i * 3 - 5;
    std::int64_t& m = o.hm[static_cast<std::size_t>((i * 5) % 6)];
    m = std::max(m, ((i * 53) % 89) - 40);
  }
  o.out = {s, mx};
  for (std::int64_t i = 0; i < n; ++i) o.h[static_cast<std::size_t>(i % 5)] += i;
  for (std::int64_t i = 0; i < n; ++i) {
    o.h[static_cast<std::size_t>((i * 3) % 5)] += i * 2 + 1;
  }
  return o;
}

template <typename T>
SliceVal to_slice(const std::vector<T>& v) {
  SliceVal s;
  s.data = std::make_shared<std::vector<Value>>();
  for (const T& x : v) s.data->push_back(Value(x));
  return s;
}

template <typename T>
std::vector<T> from_slice(const SliceVal& s) {
  std::vector<T> out;
  for (const Value& v : *s.data) out.push_back(std::get<T>(v.v));
  return out;
}

template <typename T>
mz::Slice<T> view(std::vector<T>& v) {
  return mz::Slice<T>{v.data(), static_cast<std::int64_t>(v.size())};
}

TEST_P(BackendScheduleSweep, SectionReductionsAgree) {
  const ScheduleSweepCase& cs = GetParam();
  auto result = core::compile_source(read_kernel("reduce_matrix.mz"));
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  zomp::set_schedule({cs.kind, cs.chunk});

  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{3},
                               std::int64_t{41}}) {
    const SectionOracle oracle = serial_section_oracle(n);
    for (const int threads : {1, 3, 4}) {
      zomp::set_num_threads(threads);
      Interp interp(*result.module);
      SectionOracle in = section_seed();
      SliceVal hf = to_slice(in.hf), hi = to_slice(in.hi),
               hm = to_slice(in.hm), out = to_slice(in.out),
               h = to_slice(in.h);
      interp.call_by_name("section_run", {Value(n), Value(hf), Value(hi),
                                          Value(hm), Value(out)});
      interp.call_by_name("section_standalone_run", {Value(n), Value(h)});

      SectionOracle nat = section_seed();
      mzgen_reduce_matrix_mz::section_run(n, view(nat.hf), view(nat.hi),
                                          view(nat.hm), view(nat.out));
      mzgen_reduce_matrix_mz::section_standalone_run(n, view(nat.h));

      const std::string where = std::string(cs.clause) + ", n = " +
                                std::to_string(n) + ", " +
                                std::to_string(threads) + " threads";
      EXPECT_EQ(from_slice<double>(hf), oracle.hf) << where;
      EXPECT_EQ(from_slice<std::int64_t>(hi), oracle.hi) << where;
      EXPECT_EQ(from_slice<std::int64_t>(hm), oracle.hm) << where;
      EXPECT_EQ(from_slice<std::int64_t>(out), oracle.out) << where;
      EXPECT_EQ(from_slice<std::int64_t>(h), oracle.h) << where;
      EXPECT_EQ(nat.hf, oracle.hf) << where;
      EXPECT_EQ(nat.hi, oracle.hi) << where;
      EXPECT_EQ(nat.hm, oracle.hm) << where;
      EXPECT_EQ(nat.out, oracle.out) << where;
      EXPECT_EQ(nat.h, oracle.h) << where;
    }
  }
  zomp::set_schedule({zomp::rt::ScheduleKind::kStatic, 0});
}

// firstprivate(a) lastprivate(a) on `parallel for` (reduce_matrix.mz
// first_last_run): every member's copy starts from the caller's 5, and only
// the last iteration changes it, so both backends must print what the serial
// loop prints, whatever the schedule and team size.
TEST_P(BackendScheduleSweep, FirstprivateLastprivateAgree) {
  const ScheduleSweepCase& cs = GetParam();
  zomp::set_schedule({cs.kind, cs.chunk});
  constexpr std::int64_t n = 41;
  std::vector<std::int64_t> serial(n, 5);
  serial[n - 1] = 51;  // 5 * 10 + 1, also the returned value
  auto result = core::compile_source(read_kernel("reduce_matrix.mz"));
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  for (const int threads : {1, 3, 4}) {
    zomp::set_num_threads(threads);
    const std::string where =
        std::string(cs.clause) + ", " + std::to_string(threads) + " threads";
    Interp interp(*result.module);
    SliceVal out = make_slice_i64(n);
    const Value a =
        interp.call_by_name("first_last_run", {Value(n), Value(out)});
    EXPECT_EQ(a.as_i64(), 51) << "interp, " << where;
    EXPECT_EQ(from_slice<std::int64_t>(out), serial) << "interp, " << where;
    std::vector<std::int64_t> nat(n, 0);
    EXPECT_EQ(mzgen_reduce_matrix_mz::first_last_run(n, view(nat)), 51)
        << "native, " << where;
    EXPECT_EQ(nat, serial) << "native, " << where;
  }
  zomp::set_schedule({zomp::rt::ScheduleKind::kStatic, 0});
}

TEST(SectionReductionDeathTest, SectionLongerThanItsSliceStopsBothBackends) {
  // h[0:5] over a 3-element slice: the loop body only writes the private
  // copy, so the winner's fold is where both backends must stop, before
  // writing past the slice.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  zomp::set_num_threads(3);
  std::vector<std::int64_t> h(3, 0);
  EXPECT_DEATH(mzgen_reduce_matrix_mz::section_standalone_run(41, view(h)),
               "reduction section exceeds its slice");
  auto result = core::compile_source(read_kernel("reduce_matrix.mz"));
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  Interp interp(*result.module);
  EXPECT_DEATH(interp.call_by_name("section_standalone_run",
                                   {Value(std::int64_t{41}),
                                    Value(make_slice_i64(3))}),
               "reduction section \\[0:5\\] exceeds its slice of len 3");
}

TEST_P(BackendScheduleSweep, CollapseDepthsAgreeWithCollapseOne) {
  // collapse(2)/collapse(3) must produce the same results as the collapse(1)
  // spelling of the identical nest: rewrite the clause in source and
  // interpret both forms.
  const ScheduleSweepCase& cs = GetParam();
  const std::string source = read_kernel("reduce_matrix.mz");
  auto deep = core::compile_source(source, {true, "reduce_matrix_deep"});
  ASSERT_TRUE(deep.ok) << deep.diagnostics_text();

  std::string flat_source = source;
  for (const char* clause : {"collapse(2)", "collapse(3)"}) {
    for (std::string::size_type at = flat_source.find(clause);
         at != std::string::npos; at = flat_source.find(clause)) {
      flat_source.replace(at, std::string(clause).size(), "collapse(1)");
    }
  }
  ASSERT_NE(flat_source, source) << "kernel lost its collapse clauses";
  auto flat = core::compile_source(flat_source, {true, "reduce_matrix_flat"});
  ASSERT_TRUE(flat.ok) << flat.diagnostics_text();

  constexpr std::int64_t h = 8, w = 6, a3 = 6, b3 = 4, c3 = 5;
  zomp::set_num_threads(4);
  zomp::set_schedule({cs.kind, cs.chunk});

  Interp deep_interp(*deep.module);
  Interp flat_interp(*flat.module);

  SliceVal d2 = make_slice_i64(1), f2 = make_slice_i64(1);
  deep_interp.call_by_name("collapse2_run", {Value(h), Value(w), Value(d2)});
  flat_interp.call_by_name("collapse2_run", {Value(h), Value(w), Value(f2)});
  EXPECT_EQ((*d2.data)[0].as_i64(), (*f2.data)[0].as_i64()) << cs.clause;

  SliceVal d3 = make_slice_i64(2), f3 = make_slice_i64(2);
  deep_interp.call_by_name("collapse3_run",
                           {Value(a3), Value(b3), Value(c3), Value(d3)});
  flat_interp.call_by_name("collapse3_run",
                           {Value(a3), Value(b3), Value(c3), Value(f3)});
  EXPECT_EQ((*d3.data)[0].as_i64(), (*f3.data)[0].as_i64()) << cs.clause;
  EXPECT_EQ((*d3.data)[1].as_i64(), (*f3.data)[1].as_i64()) << cs.clause;

  zomp::set_schedule({zomp::rt::ScheduleKind::kStatic, 0});
}

TEST(BackendEquivalenceTest, CollapseDegenerateDimensionsRunZeroIterations) {
  // A zero-extent dimension anywhere must empty the whole linearized space
  // in both backends (and must not divide by zero).
  auto result = core::compile_source(read_kernel("reduce_matrix.mz"),
                                     {true, "reduce_matrix_degen"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  zomp::set_num_threads(3);
  Interp interp(*result.module);
  for (const auto& [h, w] : std::initializer_list<std::pair<std::int64_t, std::int64_t>>{
           {0, 5}, {5, 0}, {0, 0}}) {
    SliceVal out = make_slice_i64(1, -7);
    interp.call_by_name("collapse2_run", {Value(h), Value(w), Value(out)});
    EXPECT_EQ((*out.data)[0].as_i64(), 0) << h << "x" << w;
    std::vector<std::int64_t> nout(1, -7);
    mzgen_reduce_matrix_mz::collapse2_run(
        h, w, mz::Slice<std::int64_t>{nout.data(), 1});
    EXPECT_EQ(nout[0], 0) << h << "x" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, BackendScheduleSweep,
    ::testing::Values(
        ScheduleSweepCase{zomp::rt::ScheduleKind::kStatic, 0,
                          "schedule(static)"},
        ScheduleSweepCase{zomp::rt::ScheduleKind::kDynamic, 1,
                          "schedule(dynamic, 1)"},
        ScheduleSweepCase{zomp::rt::ScheduleKind::kGuided, 0,
                          "schedule(guided)"}));

// -- Task graph: depend wavefront, taskloop, taskgroup (DESIGN.md S1.7) ------
//
// taskgraph.mz is all-integer, so ANY task interleaving that honours the
// declared dependences is bit-identical to the serial oracle. The sweep runs
// the same file interpreted and natively transpiled across {1, 2, 4, 8}
// threads — the acceptance gate of the tasking PR.

std::int64_t wavefront_lij(std::int64_t i, std::int64_t j) {
  std::int64_t r = (i + 2 * j) % 3;
  if (r < 0) r += 3;
  return r - 1;
}

class BackendTaskGraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(BackendTaskGraphSweep, TaskgraphKernelAgreesAcrossBackends) {
  const int threads = GetParam();
  auto result = core::compile_source(read_kernel("taskgraph.mz"),
                                     {true, "taskgraph_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  zomp::set_num_threads(threads);
  Interp interp(*result.module);

  // wavefront_run — blocked unit-lower-triangular solve via depend.
  {
    constexpr std::int64_t nb = 5, bs = 8, n = nb * bs;
    std::vector<std::int64_t> bvec(n), xo(n);
    for (std::int64_t i = 0; i < n; ++i) bvec[i] = (i * 17 % 23) - 11;
    for (std::int64_t i = 0; i < n; ++i) {
      std::int64_t s = 0;
      for (std::int64_t j = 0; j < i; ++j) s += wavefront_lij(i, j) * xo[j];
      xo[i] = bvec[i] - s;
    }
    std::int64_t oracle = 0;
    for (std::int64_t i = 0; i < n; ++i) oracle += xo[i] * (i % 13 + 1);

    SliceVal ib = make_slice_i64(n);
    SliceVal ix = make_slice_i64(n);
    for (std::int64_t i = 0; i < n; ++i) {
      (*ib.data)[static_cast<std::size_t>(i)] = Value(bvec[i]);
    }
    const Value isum = interp.call_by_name(
        "wavefront_run", {Value(nb), Value(bs), Value(ib), Value(ix)});

    std::vector<std::int64_t> nx(n, 0);
    const std::int64_t nsum = mzgen_taskgraph_mz::wavefront_run(
        nb, bs, mz::Slice<std::int64_t>{bvec.data(), n},
        mz::Slice<std::int64_t>{nx.data(), n});

    EXPECT_EQ(isum.as_i64(), nsum) << threads << " threads";
    EXPECT_EQ(nsum, oracle) << threads << " threads";
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(nx[static_cast<std::size_t>(i)], xo[static_cast<std::size_t>(i)])
          << "block element " << i << " at " << threads << " threads";
    }
  }

  // taskloop_run — fill (every index exactly once, any chunking) + atomic
  // sum, chained through the implicit taskgroups.
  {
    constexpr std::int64_t n = 53, g = 3, nt = 7;
    std::int64_t oracle = 0;
    for (std::int64_t i = 0; i < n; ++i) oracle += (i * i - 3 * i + 7) * 2 + 1;

    SliceVal iout = make_slice_i64(n);
    const Value itl = interp.call_by_name(
        "taskloop_run", {Value(n), Value(g), Value(nt), Value(iout)});
    std::vector<std::int64_t> nout(n, 0);
    const std::int64_t ntl = mzgen_taskgraph_mz::taskloop_run(
        n, g, nt, mz::Slice<std::int64_t>{nout.data(), n});

    EXPECT_EQ(itl.as_i64(), ntl) << threads << " threads";
    EXPECT_EQ(ntl, oracle) << threads << " threads";
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(nout[static_cast<std::size_t>(i)], i * i - 3 * i + 7)
          << "taskloop index " << i << " at " << threads << " threads";
      ASSERT_EQ((*iout.data)[static_cast<std::size_t>(i)].as_i64(),
                i * i - 3 * i + 7)
          << "interp taskloop index " << i << " at " << threads << " threads";
    }
  }

  // taskgroup_run — a task inside a task inside a taskgroup is counted
  // (out[0] reads the total immediately after the group closes).
  {
    constexpr std::int64_t n = 20, expect = n * (n + 1) / 2;
    SliceVal iout = make_slice_i64(2);
    const Value itg = interp.call_by_name("taskgroup_run",
                                          {Value(n), Value(iout)});
    std::vector<std::int64_t> nout(2, 0);
    const std::int64_t ntg = mzgen_taskgraph_mz::taskgroup_run(
        n, mz::Slice<std::int64_t>{nout.data(), 2});
    EXPECT_EQ(itg.as_i64(), expect);
    EXPECT_EQ(ntg, expect);
    EXPECT_EQ((*iout.data)[0].as_i64(), expect) << "interp taskgroup count";
    EXPECT_EQ(nout[0], expect) << "codegen taskgroup count";
    EXPECT_EQ((*iout.data)[1].as_i64(), expect);
    EXPECT_EQ(nout[1], expect);
  }

  // clauses_run — depend chain on a scalar (strict write order), final
  // subtree inlining, if(false) undeferred, priority/untied accepted.
  {
    SliceVal iout = make_slice_i64(2);
    const Value icl = interp.call_by_name("clauses_run", {Value(5), Value(iout)});
    std::vector<std::int64_t> nout(2, 0);
    const std::int64_t ncl = mzgen_taskgraph_mz::clauses_run(
        5, mz::Slice<std::int64_t>{nout.data(), 2});
    EXPECT_EQ(icl.as_i64(), 123) << "interp depend chain order";
    EXPECT_EQ(ncl, 123) << "codegen depend chain order";
    // 17 = immediate*10 + inner: the undeferred task AND its nested child
    // both completed at the construct (run_task_inline drains children).
    EXPECT_EQ((*iout.data)[0].as_i64(), 17) << "if(false) ran undeferred";
    EXPECT_EQ(nout[0], 17) << "if(false) ran undeferred";
    EXPECT_EQ((*iout.data)[1].as_i64(), 3);
    EXPECT_EQ(nout[1], 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendTaskGraphSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(BackendEquivalenceTest, EpRandlcInterpretedMatchesHost) {
  // The MiniZig randlc (float-split arithmetic) must match the host
  // implementation bit for bit — the EP kernel's inputs depend on it.
  auto result = core::compile_source(read_kernel("ep.mz"), {true, "ep_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  Interp interp(*result.module);

  // ipow46(A, k) through the interpreter vs the host nprandom.
  for (const std::int64_t k : {0, 1, 5, 1000}) {
    const Value v = interp.call_by_name(
        "ipow46", {Value(1220703125.0), Value(k)});
    double host = 1.0;
    if (k > 0) host = zomp::npb::ipow46(zomp::npb::kRandA, k);
    EXPECT_EQ(v.as_f64(), host) << "k=" << k;
  }
}

}  // namespace
}  // namespace zomp::interp
