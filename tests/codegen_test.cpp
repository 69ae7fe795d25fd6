// Code generator tests: the emitted C++ must target the zomp ABI with the
// documented shapes (fork + void** trampoline, static-init bounds,
// dispatch-next loops), honour the safety flag, and expose pub functions.
#include <gtest/gtest.h>

#include <string>

#include "codegen/codegen.h"
#include "core/pipeline.h"

namespace zomp::codegen {
namespace {

std::string gen(const std::string& source, CodegenOptions options = {}) {
  auto result = core::compile_source(source, {true, "g"});
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
  if (!result.ok) return "";
  return emit_cpp(*result.module, options);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(CppTypeTest, Spellings) {
  EXPECT_EQ(cpp_type(lang::Type::i64()), "std::int64_t");
  EXPECT_EQ(cpp_type(lang::Type::f64()), "double");
  EXPECT_EQ(cpp_type(lang::Type::boolean()), "bool");
  EXPECT_EQ(cpp_type(lang::Type::void_type()), "void");
  EXPECT_EQ(cpp_type(lang::Type::slice_of(lang::ScalarKind::kF64)),
            "mz::Slice<double>");
  EXPECT_EQ(cpp_type(lang::Type::pointer_to(lang::ScalarKind::kI64)),
            "std::int64_t*");
}

TEST(CodegenTest, ForkEmitsArgsArrayAndTrampoline) {
  const std::string cpp = gen(R"(
fn f() void {
  var total: i64 = 0;
  //#omp parallel
  {
    total += 1;
  }
}
)");
  EXPECT_NE(cpp.find("zomp_fork_call("), std::string::npos);
  EXPECT_NE(cpp.find("_mt(std::int32_t __gtid, std::int32_t __tid, void** __args)"),
            std::string::npos);
  // Shared scalar: reference parameter, address in the args array.
  EXPECT_NE(cpp.find("std::int64_t&"), std::string::npos);
  EXPECT_NE(cpp.find("(void*)&total_"), std::string::npos);
}

TEST(CodegenTest, StaticScheduleUsesStaticInit) {
  const std::string cpp = gen(R"(
fn f(x: []f64) void {
  const n: i64 = x.len;
  //#omp parallel for schedule(static)
  for (0..n) |i| {
    x[i] = 0.0;
  }
}
)");
  EXPECT_NE(cpp.find("zomp_for_static_init("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_for_static_fini("), std::string::npos);
  EXPECT_EQ(cpp.find("zomp_dispatch_init("), std::string::npos);
}

TEST(CodegenTest, DynamicScheduleUsesDispatch) {
  const std::string cpp = gen(R"(
fn f(x: []f64) void {
  const n: i64 = x.len;
  //#omp parallel for schedule(dynamic, 4)
  for (0..n) |i| {
    x[i] = 0.0;
  }
}
)");
  EXPECT_NE(cpp.find("zomp_dispatch_init("), std::string::npos);
  EXPECT_NE(cpp.find("while (zomp_dispatch_next("), std::string::npos);
}

TEST(CodegenTest, OrderedLoopForcedThroughDispatch) {
  const std::string cpp = gen(R"(
fn f(x: []f64) void {
  const n: i64 = x.len;
  //#omp parallel for ordered schedule(static)
  for (0..n) |i| {
    //#omp ordered
    {
      x[i] = 1.0;
    }
  }
}
)");
  EXPECT_NE(cpp.find("zomp_dispatch_init("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_ordered("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_end_ordered("), std::string::npos);
}

TEST(CodegenTest, ReductionEmitsIdentityAndTreeCombine) {
  const std::string cpp = gen(R"(
fn f(n: i64) f64 {
  var s: f64 = 0.0;
  //#omp parallel for reduction(min: s)
  for (0..n) |i| {
    s = @min(s, @floatFromInt(i));
  }
  return s;
}
)");
  EXPECT_NE(cpp.find("std::numeric_limits<double>::infinity()"),
            std::string::npos);
  // Tree rendezvous over a one-field pack: a static combine fn + winner-only
  // fold into the target (single variables take the packed path too).
  EXPECT_NE(cpp.find("if (zomp_reduce("), std::string::npos);
  EXPECT_NE(cpp.find("__redpack_"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("mz::mz_min("), std::string::npos);
  EXPECT_EQ(cpp.find("zomp_reduce_enter("), std::string::npos)
      << "global-critical reduction protocol must be retired";
}

TEST(CodegenTest, MultiVarReductionPacksIntoOneRendezvous) {
  // Two reduction clauses on one construct: the partials pack into a single
  // struct payload and ONE zomp_reduce call, not one per variable.
  const std::string cpp = gen(R"(
fn f(n: i64) f64 {
  var s: f64 = 0.0;
  var m: i64 = -100000;
  //#omp parallel for reduction(+: s) reduction(max: m)
  for (0..n) |i| {
    s += @floatFromInt(i);
    m = @max(m, @mod(i * 13, 97));
  }
  return s + @floatFromInt(m);
}
)");
  EXPECT_EQ(count_of(cpp, "zomp_reduce("), 1u)
      << "expected exactly one packed rendezvous:\n" << cpp;
  EXPECT_NE(cpp.find("__redpack_"), std::string::npos) << cpp;
}

TEST(CodegenTest, SingleVarReductionPrivateNeverEscapes) {
  // Jacobi-shaped sweep: the accumulator is copied into a one-field pack
  // before the rendezvous, so its own address never reaches the runtime and
  // the compiler may keep it in a register across the f64 stores to dst.
  const std::string cpp = gen(R"(
fn sweep(n: i64, src: []f64, dst: []f64) f64 {
  var res: f64 = 0.0;
  //#omp parallel for reduction(+: res)
  for (1..n) |k| {
    const d: f64 = src[k] - src[k - 1];
    res += d * d;
    dst[k] = d;
  }
  return res;
}
)");
  EXPECT_NE(cpp.find("__redpack_"), std::string::npos) << cpp;
  EXPECT_EQ(count_of(cpp, "zomp_reduce("), 1u) << cpp;
  const std::size_t call = cpp.find("zomp_reduce(");
  ASSERT_NE(call, std::string::npos);
  const std::string args = cpp.substr(call, cpp.find(')', call) - call);
  EXPECT_EQ(args.find("&res_"), std::string::npos)
      << "the private accumulator's address escapes: " << args;
}

TEST(CodegenTest, SectionReductionJoinsTheConstructsOnePack) {
  // EP-shaped: a histogram section beside three scalars. The section's
  // private copy is a stack array behind a slice view named like the
  // variable; its ten elements become one array field of the construct's
  // single pack, so the histogram costs no atomics and no extra rendezvous,
  // and neither the array's nor a scalar private's address reaches the
  // runtime.
  const std::string source = R"(
fn ep(n: i64, q: []f64, res: []f64) void {
  var sx: f64 = 0.0;
  var sy: f64 = 0.0;
  var accepted: f64 = 0.0;
  //#omp parallel for reduction(+: sx, sy, accepted, q[0:10]) schedule(static)
  for (0..n) |i| {
    const bin: i64 = @mod(i * 7, 10);
    q[bin] += 1.0;
    sx += 0.5;
    sy -= 0.25;
    accepted += 1.0;
  }
  res[0] = sx + sy + accepted;
}
)";
  const std::string cpp = gen(source);
  EXPECT_EQ(count_of(cpp, "zomp_reduce("), 1u) << cpp;
  EXPECT_EQ(count_of(cpp, "zomp_atomic"), 0u) << cpp;
  const std::size_t call = cpp.find("zomp_reduce(");
  ASSERT_NE(call, std::string::npos);
  const std::string args = cpp.substr(call, cpp.find(')', call) - call);
  for (const char* priv : {"__priv", "&q_", "&sx_", "&sy_", "&accepted_"}) {
    EXPECT_EQ(args.find(priv), std::string::npos)
        << "a private's address escapes: " << args;
  }
  // The private array, its identity fill, the const view the body indexes,
  // and the pack's array field.
  EXPECT_NE(cpp.find("double q_"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("__priv[10];"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("__priv[__k] = 0.0;"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("const mz::Slice<double> q_"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find(" double v0[10]; double v1; double v2; double v3; };"),
            std::string::npos)
      << cpp;
  // One pack struct, whatever the team size: the scalars initialise their
  // fields, the array field starts as {} and is copied from the private,
  // and the pack's own address goes to the runtime. The winner checks the
  // shared slice's length, then folds the section element-wise.
  EXPECT_NE(cpp.find("{{}, sx_"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find(".v0[__k] = q_"), std::string::npos) << cpp;
  EXPECT_NE(args.find(", &__redpack_"), std::string::npos) << args;
  EXPECT_EQ(cpp.find("zomp_get_num_threads()"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find(".len < 10) mz::panic("), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("q__red_"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("[__k] + __redpack_"), std::string::npos) << cpp;

  // --safe keeps the section bounds-checked: the body indexes the view,
  // an mz::Slice, never the raw array.
  CodegenOptions safe;
  safe.safety_checks = true;
  const std::string checked = gen(source, safe);
  EXPECT_NE(checked.find("#define ZOMP_MZ_SAFE 1"), std::string::npos);
  EXPECT_EQ(count_of(checked, "__priv["), 3u)
      << "only the declaration, the fill and the pack copy touch the array:\n"
      << checked;
}

TEST(CodegenTest, SeventeenReductionVariablesShareOnePack) {
  // A construct is one rendezvous however many variables it reduces: the
  // 17 partials ride one 17-field pack (no per-variable path, no split).
  std::string decls, clauses, body, sum = "0";
  for (int v = 0; v < 17; ++v) {
    const std::string name = "r" + std::to_string(v);
    decls += "  var " + name + ": i64 = 0;\n";
    clauses += " reduction(+: " + name + ")";
    body += "    " + name + " += i * " + std::to_string(v + 1) + ";\n";
    sum += " + " + name;
  }
  const std::string cpp =
      gen("fn f(n: i64) i64 {\n" + decls + "  //#omp parallel for" + clauses +
          "\n  for (0..n) |i| {\n" + body + "  }\n  return " + sum + ";\n}\n");
  EXPECT_EQ(count_of(cpp, "zomp_reduce("), 1u) << cpp;
  EXPECT_EQ(count_of(cpp, "_t __redpack_"), 1u) << cpp;
  EXPECT_NE(cpp.find(" std::int64_t v15; std::int64_t v16; };"),
            std::string::npos)
      << cpp;
}

TEST(CodegenTest, CollapseEmitsOdometerAdvance) {
  // The div/mod de-linearization seeds the ivs once per chunk; inside the
  // chunk the ivs advance by increment-and-carry in the loop's iteration
  // clause (so `continue` cannot skip it).
  const std::string cpp = gen(R"(
fn f(h: i64, w: i64, x: []f64) void {
  //#omp parallel for collapse(2) schedule(dynamic, 1)
  for (0..h) |i| {
    for (0..w) |j| {
      x[i * w + j] = 1.0;
    }
  }
}
)");
  // Seed keeps the div/mod form (chunk entry)...
  EXPECT_NE(cpp.find("/ __omp_c0_d0_s"), std::string::npos) << cpp;
  // ...and the iteration clause carries the inner iv with a wrap test
  // against lo + extent.
  EXPECT_NE(cpp.find("!= __omp_c0_d1_lo"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("+ __omp_c0_d1_n"), std::string::npos) << cpp;
}

TEST(CodegenTest, CollapseEmitsLinearizedLoopWithDelinearization) {
  const std::string cpp = gen(R"(
fn f(h: i64, w: i64, x: []f64) void {
  //#omp parallel for collapse(2) schedule(dynamic, 1)
  for (0..h) |i| {
    for (0..w) |j| {
      x[i * w + j] = 1.0;
    }
  }
}
)");
  // One dispatch loop over the linearized total...
  EXPECT_NE(cpp.find("__omp_c0_total"), std::string::npos);
  EXPECT_NE(cpp.find("zomp_dispatch_init("), std::string::npos);
  // ...with per-iteration recomputation of both induction variables: the
  // outer one divides by its stride, the inner one also takes the modulo.
  EXPECT_NE(cpp.find("/ __omp_c0_d0_s"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("% __omp_c0_d1_n"), std::string::npos) << cpp;
}

TEST(CodegenTest, LastprivateCopyDoesNotReadSharedVariable) {
  // The private copy's init is a type hint: evaluating it would race the
  // lastprivate writeback of a nowait loop.
  const std::string cpp = gen(R"(
fn f(n: i64) i64 {
  var last: i64 = 0;
  //#omp parallel for lastprivate(last)
  for (0..n) |i| {
    last = i;
  }
  return last;
}
)");
  const auto decl = cpp.find("std::int64_t last__lp");
  ASSERT_NE(decl, std::string::npos);
  EXPECT_NE(cpp.find("= {};", decl), std::string::npos)
      << "private copy must value-initialize, not read the shared variable";
}

TEST(CodegenTest, SinglesCriticalsMastersBarriers) {
  const std::string cpp = gen(R"(
fn f() void {
  var t: i64 = 0;
  //#omp parallel
  {
    //#omp single
    {
      t += 1;
    }
    //#omp critical(name)
    {
      t += 1;
    }
    //#omp master
    {
      t += 1;
    }
    //#omp barrier
  }
}
)");
  EXPECT_NE(cpp.find("if (zomp_single("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_end_single("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_critical("), std::string::npos);
  EXPECT_NE(cpp.find("\"name\""), std::string::npos);
  EXPECT_NE(cpp.find("if (zomp_master("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_barrier("), std::string::npos);
}

TEST(CodegenTest, AtomicMapsToTypedEntryPoint) {
  const std::string cpp = gen(R"(
fn f(x: []f64, c: []i64) void {
  //#omp parallel
  {
    //#omp atomic
    x[0] += 1.5;
    //#omp atomic
    c[0] += 2;
  }
}
)");
  EXPECT_NE(cpp.find("zomp_atomic_add_f64(&("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_atomic_add_i64(&("), std::string::npos);
}

TEST(CodegenTest, TaskEmitsPackAndThunk) {
  const std::string cpp = gen(R"(
fn f(v: i64) void {
  //#omp parallel
  {
    //#omp task
    {
      var w: i64 = v + 1;
      w += 1;
    }
    //#omp taskwait
  }
}
)");
  EXPECT_NE(cpp.find("zomp_task("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_taskwait("), std::string::npos);
  EXPECT_NE(cpp.find("sizeof("), std::string::npos);
}

TEST(CodegenTest, SafetyFlagEmitsDefine) {
  const std::string source = R"(
fn f(x: []f64) f64 { return x[0]; }
)";
  CodegenOptions safe;
  safe.safety_checks = true;
  EXPECT_NE(gen(source, safe).find("#define ZOMP_MZ_SAFE 1"),
            std::string::npos);
  EXPECT_EQ(gen(source).find("#define ZOMP_MZ_SAFE"), std::string::npos);
}

TEST(CodegenTest, PubFunctionsHaveExternalLinkage) {
  const std::string cpp = gen(R"(
pub fn api(x: []f64) f64 { return x[0]; }
fn internal() void {}
)");
  EXPECT_NE(cpp.find("double api(mz::Slice<double>"), std::string::npos);
  EXPECT_NE(cpp.find("static void internal()"), std::string::npos);
}

TEST(CodegenTest, ExternFunctionsDeclaredWithCLinkage) {
  const std::string cpp = gen(R"(
extern fn cg_solve_(n: *i64, x: *f64) void;
fn f() void {
  var n: i64 = 3;
  var v: f64 = 0.0;
  cg_solve_(&n, &v);
}
)");
  EXPECT_NE(cpp.find("extern \"C\""), std::string::npos);
  EXPECT_NE(cpp.find("void cg_solve_(std::int64_t*, double*);"),
            std::string::npos);
}

TEST(CodegenTest, WhileContinueExpressionBecomesForStep) {
  const std::string cpp = gen(R"(
fn f(n: i64) i64 {
  var i: i64 = 0;
  var s: i64 = 0;
  while (i < n) : (i += 2) {
    if (i == 4) { continue; }
    s += i;
  }
  return s;
}
)");
  // `continue` must still run the step: emitted as a for statement.
  EXPECT_NE(cpp.find("for (; "), std::string::npos);
  EXPECT_NE(cpp.find("+= INT64_C(2))"), std::string::npos);
}

TEST(CodegenTest, EmitMainWrapsPubMain) {
  CodegenOptions with_main;
  with_main.emit_main = true;
  const std::string cpp = gen("pub fn main() void { @print(1); }", with_main);
  EXPECT_NE(cpp.find("int main() {"), std::string::npos);
}

TEST(CodegenHeaderTest, DeclaresOnlyPubFunctions) {
  auto result = core::compile_source(R"(
pub fn visible(a: i64) i64 { return a; }
fn hidden() void {}
)",
                                     {true, "h"});
  ASSERT_TRUE(result.ok);
  const std::string header = emit_header(*result.module);
  EXPECT_NE(header.find("std::int64_t visible(std::int64_t a);"),
            std::string::npos);
  EXPECT_EQ(header.find("hidden"), std::string::npos);
  EXPECT_NE(header.find("#pragma once"), std::string::npos);
}

TEST(CodegenTest, NumThreadsAndIfClauses) {
  const std::string cpp = gen(R"(
fn f(n: i64) void {
  var t: i64 = 0;
  //#omp parallel num_threads(4) if(n > 10)
  {
    t += 1;
  }
}
)");
  EXPECT_NE(cpp.find("zomp_push_num_threads("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_fork_call_if("), std::string::npos);
}

TEST(CodegenTest, ProcBindClausePushesBeforeFork) {
  const std::string cpp = gen(R"(
fn f() void {
  var t: i64 = 0;
  //#omp parallel proc_bind(spread)
  {
    t += 1;
  }
}
)");
  // spread = BindKind/omp_proc_bind_t value 4, pushed one-shot like
  // num_threads and consumed by the fork that follows.
  const auto push = cpp.find("zomp_push_proc_bind(");
  ASSERT_NE(push, std::string::npos);
  EXPECT_NE(cpp.find(", 4);", push), std::string::npos);
  EXPECT_LT(push, cpp.find("zomp_fork_call("));
}

TEST(CodegenTest, NoProcBindClauseEmitsNoPush) {
  const std::string cpp = gen(R"(
fn f() void {
  var t: i64 = 0;
  //#omp parallel
  {
    t += 1;
  }
}
)");
  EXPECT_EQ(cpp.find("zomp_push_proc_bind("), std::string::npos);
}

TEST(CodegenTest, TaskWithDepsEmitsDependArrayAndFlags) {
  const std::string cpp = gen(R"(
fn f(x: []i64, n: i64) void {
  //#omp parallel
  {
    //#omp single
    {
      const cn = n;
      //#omp task depend(out: x[0]) depend(in: x[1]) final(cn > 2) priority(3) untied
      {
        x[0] = 1;
      }
    }
  }
}
)");
  // Depend addresses evaluated at the creation site; kinds 2 = out, 1 = in.
  EXPECT_NE(cpp.find("zomp_depend_t"), std::string::npos);
  EXPECT_NE(cpp.find("), 2}"), std::string::npos);
  EXPECT_NE(cpp.find("), 1}"), std::string::npos);
  EXPECT_NE(cpp.find("zomp_task_with_deps("), std::string::npos);
  EXPECT_NE(cpp.find("ZOMP_TASK_FINAL"), std::string::npos);
  EXPECT_NE(cpp.find("ZOMP_TASK_UNTIED"), std::string::npos);
  // A plain task must NOT pay the rich entry point.
  const std::string plain = gen(R"(
fn g(x: []i64) void {
  //#omp parallel
  {
    //#omp single
    {
      //#omp task
      {
        x[0] = 1;
      }
    }
  }
}
)");
  EXPECT_NE(plain.find("zomp_task("), std::string::npos);
  EXPECT_EQ(plain.find("zomp_task_with_deps("), std::string::npos);
}

TEST(CodegenTest, TaskgroupEmitsRaiiGuard) {
  const std::string cpp = gen(R"(
fn f(x: []i64) void {
  //#omp parallel
  {
    //#omp single
    {
      //#omp taskgroup
      {
        //#omp task
        {
          x[0] = 1;
        }
      }
    }
  }
}
)");
  EXPECT_NE(cpp.find("zomp_taskgroup_begin("), std::string::npos);
  EXPECT_NE(cpp.find("zomp_taskgroup_end("), std::string::npos);
  // End rides a destructor so early returns still close the group.
  EXPECT_NE(cpp.find("~"), std::string::npos);
}

TEST(CodegenTest, TaskloopEmitsChunkThunkAndBounds) {
  const std::string cpp = gen(R"(
fn f(x: []i64, n: i64) void {
  //#omp parallel
  {
    //#omp single
    {
      const g = n;
      //#omp taskloop grainsize(g)
      for (0..n) |i| {
        x[i] = i;
      }
    }
  }
}
)");
  EXPECT_NE(cpp.find("zomp_taskloop("), std::string::npos);
  // Chunk thunk takes the bounds; the outlined fn receives them last.
  EXPECT_NE(cpp.find("static void run(std::int64_t __lo, std::int64_t __hi"),
            std::string::npos);
  EXPECT_NE(cpp.find(", __lo, __hi)"), std::string::npos);
}

TEST(CodegenTest, CancelForEmitsEscapeLabelAndLoopFlag) {
  const std::string cpp = gen(R"(
fn f(n: i64, x: []i64) void {
  //#omp parallel
  {
    //#omp for schedule(dynamic, 1)
    for (0..n) |i| {
      //#omp cancellation point for
      x[i] = 1;
      if (i == 5) {
        //#omp cancel for
      }
    }
  }
}
)");
  // Both the point and the cancel target the loop bit and jump to the escape
  // label the ws-loop emission planted before its closing barrier.
  EXPECT_NE(cpp.find("zomp_cancellation_point("), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("zomp_cancel("), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("ZOMP_CANCEL_LOOP"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("goto __cancel_for_"), std::string::npos) << cpp;
  // The label detaches the dispatch slot so the ring entry is not leaked.
  const auto label = cpp.find("__cancel_for_");
  ASSERT_NE(label, std::string::npos);
  EXPECT_NE(cpp.find(": zomp_dispatch_break("), std::string::npos) << cpp;
}

TEST(CodegenTest, WsLoopWithoutCancelEmitsNoLabel) {
  // -Wunused-label hygiene: the escape label only materialises when a
  // body-level cancel will goto it.
  const std::string cpp = gen(R"(
fn f(n: i64, x: []i64) void {
  //#omp parallel for schedule(dynamic, 1)
  for (0..n) |i| {
    x[i] = 1;
  }
}
)");
  EXPECT_EQ(cpp.find("cancel_for_"), std::string::npos) << cpp;
}

TEST(CodegenTest, CancelParallelReturnsFromOutlinedRegion) {
  const std::string cpp = gen(R"(
fn f() void {
  var t: i64 = 0;
  //#omp parallel
  {
    t += 1;
    //#omp cancel parallel
  }
}
)");
  // Activation observed -> break any dispatch slot, then leave the outlined
  // region body; the join barrier is not cancellable.
  EXPECT_NE(cpp.find("if (zomp_cancel("), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("ZOMP_CANCEL_PARALLEL"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("zomp_dispatch_break("), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("; return; }"), std::string::npos) << cpp;
}

TEST(CodegenTest, CancelTaskgroupUsesTaskgroupFlag) {
  const std::string cpp = gen(R"(
fn f(x: []i64) void {
  //#omp parallel
  {
    //#omp single
    {
      //#omp taskgroup
      {
        //#omp task
        {
          //#omp cancel taskgroup
          x[0] = 1;
        }
      }
    }
  }
}
)");
  EXPECT_NE(cpp.find("ZOMP_CANCEL_TASKGROUP"), std::string::npos) << cpp;
}

TEST(CodegenTest, BarrierInOutlinedRegionChecksAbandonment) {
  const std::string cpp = gen(R"(
fn f() void {
  var t: i64 = 0;
  //#omp parallel
  {
    //#omp barrier
    t += 1;
  }
}
)");
  // zomp_barrier returns 1 when the episode was abandoned by a pending
  // cancel parallel; region bodies react by returning to the join.
  EXPECT_NE(cpp.find("if (zomp_barrier("), std::string::npos) << cpp;
}

TEST(CodegenTest, StringEscapesInPrint) {
  const std::string cpp = gen(R"(
fn f() void { @print("a\"b\n"); }
)");
  EXPECT_NE(cpp.find(R"(mz::print("a\"b\n"))"), std::string::npos);
}

}  // namespace
}  // namespace zomp::codegen
