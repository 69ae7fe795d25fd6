// Transform tests: capture analysis and the outlining rewrite (the paper's
// Figure 1 machinery), validated on AST dumps and structure.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/capture.h"
#include "core/pipeline.h"
#include "lang/lexer.h"
#include "lang/parser.h"

namespace zomp::core {
namespace {

// ---------------------------------------------------------------------------
// Capture (free-variable) analysis
// ---------------------------------------------------------------------------

std::vector<std::string> captures_of(const std::string& fn_body_text) {
  const std::string source =
      "var g: i64 = 0;\nfn helper() void {}\nfn f(a: i64, x: []f64) void " +
      fn_body_text;
  lang::SourceFile file("cap.mz", source);
  lang::Diagnostics diags;
  lang::Lexer lexer(file, diags);
  lang::Parser parser(lexer.lex(), diags);
  auto module = parser.parse_module("cap");
  EXPECT_FALSE(diags.has_errors()) << diags.render(file);
  const ModuleNames names = ModuleNames::collect(*module);
  return free_variables(*module->find_function("f")->body, names);
}

TEST(CaptureTest, ParamsAreFree) {
  EXPECT_EQ(captures_of("{ x[a] = 1.0; }"),
            (std::vector<std::string>{"x", "a"}));
}

TEST(CaptureTest, LocalsAreBound) {
  EXPECT_EQ(captures_of("{ var t: i64 = 1; t += 2; }"),
            std::vector<std::string>{});
}

TEST(CaptureTest, GlobalsAndFunctionsNotCaptured) {
  EXPECT_EQ(captures_of("{ g += 1; helper(); }"), std::vector<std::string>{});
}

TEST(CaptureTest, OrderIsFirstUse) {
  EXPECT_EQ(captures_of("{ var t: f64 = x[0]; t += @floatFromInt(a); }"),
            (std::vector<std::string>{"x", "a"}));
}

TEST(CaptureTest, LoopVariableIsBoundInBody) {
  EXPECT_EQ(captures_of("{ for (0..a) |i| { x[i] = 0.0; } }"),
            (std::vector<std::string>{"a", "x"}));
}

TEST(CaptureTest, ShadowingRespected) {
  // Inner declaration of `a` binds later uses; the initialiser still refers
  // to the outer `a`.
  EXPECT_EQ(captures_of("{ var a: i64 = 3; a += 1; }"),
            std::vector<std::string>{});
  EXPECT_EQ(captures_of("{ { var q: i64 = a; } }"),
            (std::vector<std::string>{"a"}));
}

TEST(CaptureTest, UseBeforeLocalDeclIsFree) {
  // `a` used before a same-block declaration of `a`: block-scope tracking
  // must count the first use as the outer variable.
  EXPECT_EQ(captures_of("{ var t: i64 = a; { var a: i64 = 1; a += 1; } t += a; }"),
            (std::vector<std::string>{"a"}));
}

// ---------------------------------------------------------------------------
// Transform structure (via the pipeline, pre-backend dumps)
// ---------------------------------------------------------------------------

std::string transformed_dump(const std::string& source, bool expect_ok = true) {
  auto result = compile_source(source, {true, "t"});
  EXPECT_EQ(result.ok, expect_ok) << result.diagnostics_text();
  if (!result.module) return "";
  return lang::dump_ast(*result.module);
}

TEST(TransformTest, ParallelOutlinesRegion) {
  const std::string out = transformed_dump(R"(
fn f() void {
  var total: i64 = 0;
  //#omp parallel
  {
    total += 1;
  }
}
)");
  EXPECT_NE(out.find("(omp-fork __omp_f_parallel_0 [total shared-ptr])"),
            std::string::npos);
  EXPECT_NE(out.find("(outlined-fn __omp_f_parallel_0 (total:i64) void"),
            std::string::npos);
}

TEST(TransformTest, SharedSliceRefinedBySema) {
  const std::string out = transformed_dump(R"(
fn f(x: []f64) void {
  //#omp parallel
  {
    x[0] = 1.0;
  }
}
)");
  EXPECT_NE(out.find("[x shared-slice]"), std::string::npos);
  EXPECT_NE(out.find("(x:[]f64)"), std::string::npos);
}

TEST(TransformTest, PrivateAndFirstprivateAreValueCaptures) {
  const std::string out = transformed_dump(R"(
fn f() void {
  var a: i64 = 1;
  var b: i64 = 2;
  //#omp parallel private(a) firstprivate(b)
  {
    a = b;
  }
}
)");
  EXPECT_NE(out.find("[a value]"), std::string::npos);
  EXPECT_NE(out.find("[b value]"), std::string::npos);
}

TEST(TransformTest, ReductionMaterialisesInitAndCombine) {
  const std::string out = transformed_dump(R"(
fn f(n: i64) f64 {
  var s: f64 = 0.0;
  //#omp parallel for reduction(+: s)
  for (0..n) |i| {
    s += 1.0;
  }
  return s;
}
)");
  EXPECT_NE(out.find("[s reduction-ptr +]"), std::string::npos);
  EXPECT_NE(out.find("(omp-red-init s + from s__red)"), std::string::npos);
  EXPECT_NE(out.find("(omp-red-combine s__red + s)"), std::string::npos);
}

TEST(TransformTest, StandaloneForReductionCombinesIntoVisibleVar) {
  const std::string out = transformed_dump(R"(
fn f(n: i64) f64 {
  var s: f64 = 0.0;
  //#omp parallel
  {
    //#omp for reduction(+: s)
    for (0..n) |i| {
      s += 1.0;
    }
  }
  return s;
}
)");
  // Private accumulator with renamed body references + combine + barrier.
  EXPECT_NE(out.find("(omp-red-init s__prv + from s)"), std::string::npos);
  EXPECT_NE(out.find("(assign += s__prv 1)"), std::string::npos)
      << "loop body must be renamed to the private accumulator";
  EXPECT_NE(out.find("(omp-red-combine s + s__prv)"), std::string::npos);
  EXPECT_NE(out.find("(omp-barrier)"), std::string::npos);
}

TEST(TransformTest, CombinedParallelForNestsWsLoopInRegion) {
  auto result = compile_source(R"(
fn f(x: []f64) void {
  const n: i64 = x.len;
  //#omp parallel for schedule(dynamic, 4)
  for (0..n) |i| {
    x[i] = 0.0;
  }
}
)");
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.stats.regions_outlined, 1);
  EXPECT_EQ(result.stats.ws_loops, 1);
  const std::string out = lang::dump_ast(*result.module);
  EXPECT_NE(out.find("schedule=dynamic chunk=4"), std::string::npos);
  // Combined form: no explicit barrier on the loop (join barrier covers it).
  EXPECT_NE(out.find("nowait"), std::string::npos);
}

TEST(TransformTest, LastprivateCreatesPrivateCopyAndWriteback) {
  const std::string out = transformed_dump(R"(
fn f(n: i64) i64 {
  var last: i64 = 0;
  //#omp parallel for lastprivate(last)
  for (0..n) |i| {
    last = i;
  }
  return last;
}
)");
  EXPECT_NE(out.find("last__lp"), std::string::npos);
  EXPECT_NE(out.find("lastprivate=last__lp->last"), std::string::npos);
}

TEST(TransformTest, StandaloneBarrierAndTaskwait) {
  const std::string out = transformed_dump(R"(
fn f() void {
  //#omp parallel
  {
    //#omp barrier
    //#omp taskwait
  }
}
)");
  EXPECT_NE(out.find("(omp-barrier)"), std::string::npos);
  EXPECT_NE(out.find("(omp-taskwait)"), std::string::npos);
}

TEST(TransformTest, BarrierBeforeStatementKeepsStatement) {
  const std::string out = transformed_dump(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel
  {
    //#omp barrier
    a += 1;
  }
}
)");
  // Both the barrier and the increment must survive.
  EXPECT_NE(out.find("(omp-barrier)"), std::string::npos);
  EXPECT_NE(out.find("(assign += a 1)"), std::string::npos);
}

TEST(TransformTest, CriticalSingleMasterAtomicOrdered) {
  const std::string out = transformed_dump(R"(
fn f(n: i64) void {
  var t: i64 = 0;
  //#omp parallel
  {
    //#omp critical(updates)
    {
      t += 1;
    }
    //#omp single nowait
    {
      t += 1;
    }
    //#omp master
    {
      t += 1;
    }
    //#omp atomic
    t += 1;
    //#omp for ordered
    for (0..n) |i| {
      //#omp ordered
      {
        t += 1;
      }
    }
  }
}
)");
  EXPECT_NE(out.find("(omp-critical \"updates\""), std::string::npos);
  EXPECT_NE(out.find("(omp-single nowait"), std::string::npos);
  EXPECT_NE(out.find("(omp-master"), std::string::npos);
  EXPECT_NE(out.find("(omp-atomic"), std::string::npos);
  EXPECT_NE(out.find("(omp-ordered"), std::string::npos);
  EXPECT_NE(out.find("ordered"), std::string::npos);
}

TEST(TransformTest, TaskSharingFollowsEnclosingContext) {
  // `v` is (implicitly) shared in the enclosing parallel region, so the task
  // keeps it shared; `w` is a region-local, so the task firstprivatises it
  // (OpenMP 5.2 task data-sharing defaults).
  const std::string out = transformed_dump(R"(
fn f(v: i64) void {
  //#omp parallel
  {
    var w: i64 = 3;
    //#omp task
    {
      var u: i64 = v + w;
      u += 1;
    }
    //#omp taskwait
  }
}
)");
  EXPECT_NE(out.find("(omp-task __omp_"), std::string::npos);
  EXPECT_NE(out.find("[v shared-ptr]"), std::string::npos);
  EXPECT_NE(out.find("[w value]"), std::string::npos);
}

TEST(TransformTest, TaskExplicitClausesOverrideInheritance) {
  const std::string out = transformed_dump(R"(
fn f(v: i64) void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp task firstprivate(v) shared(acc)
    {
      acc += v;
    }
  }
}
)");
  EXPECT_NE(out.find("[acc shared-ptr]"), std::string::npos);
  EXPECT_NE(out.find("[v value]"), std::string::npos);
}

TEST(TransformTest, NestedParallelOutlinesTwice) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel
  {
    //#omp parallel
    {
      a += 1;
    }
  }
}
)");
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.stats.regions_outlined, 2);
  int outlined = 0;
  for (const auto& fn : result.module->functions) {
    if (fn->is_outlined) ++outlined;
  }
  EXPECT_EQ(outlined, 2);
}

// -- Collapse canonicalization -------------------------------------------------

TEST(TransformTest, CollapseTwoLinearizesNest) {
  auto result = compile_source(R"(
fn f(h: i64, w: i64) i64 {
  var acc: i64 = 0;
  //#omp parallel for collapse(2) reduction(+: acc)
  for (0..h) |y| {
    for (0..w) |x| {
      acc += y * w + x;
    }
  }
  return acc;
}
)");
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.stats.ws_loops, 1);
  const std::string out = lang::dump_ast(*result.module);
  // One linearized loop over the synthesized total, carrying nest metadata.
  EXPECT_NE(out.find("collapse=2[y x]"), std::string::npos) << out;
  EXPECT_NE(out.find("__omp_c0_total"), std::string::npos);
  EXPECT_NE(out.find("__omp_c0_flat"), std::string::npos);
  // The inner for loop is gone: only the flat loop remains inside the region.
  EXPECT_EQ(out.find("(for y"), std::string::npos) << out;
  EXPECT_EQ(out.find("(for x"), std::string::npos) << out;
}

TEST(TransformTest, CollapseThreeWithLastprivate) {
  const std::string out = transformed_dump(R"(
fn f(a: i64, b: i64, c: i64) i64 {
  var last: i64 = 0;
  //#omp parallel for collapse(3) lastprivate(last)
  for (0..a) |i| {
    for (0..b) |j| {
      for (0..c) |k| {
        last = i + j + k;
      }
    }
  }
  return last;
}
)");
  EXPECT_NE(out.find("collapse=3[i j k]"), std::string::npos) << out;
  EXPECT_NE(out.find("lastprivate=last__lp->last"), std::string::npos);
}

TEST(TransformTest, CollapseRejectsImperfectNest) {
  auto result = compile_source(R"(
fn f(h: i64, w: i64) void {
  var acc: i64 = 0;
  //#omp parallel for collapse(2)
  for (0..h) |y| {
    acc += 1;
    for (0..w) |x| {
      acc += x;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("perfectly nested"),
            std::string::npos);
}

TEST(TransformTest, CollapseRejectsNonRectangularNest) {
  auto result = compile_source(R"(
fn f(h: i64) void {
  var acc: i64 = 0;
  //#omp parallel for collapse(2)
  for (0..h) |y| {
    for (0..y) |x| {
      acc += x;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("rectangular"), std::string::npos);
}

TEST(TransformTest, CollapseRejectsDirectiveBetweenLoops) {
  auto result = compile_source(R"(
fn f(h: i64, w: i64) void {
  var acc: i64 = 0;
  //#omp parallel for collapse(2)
  for (0..h) |y| {
    //#omp critical
    for (0..w) |x| {
      acc += x;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("between the collapsed loops"),
            std::string::npos);
}

TEST(TransformTest, CollapseRejectsRepeatedLoopVariable) {
  auto result = compile_source(R"(
fn f(h: i64, w: i64) void {
  var acc: i64 = 0;
  //#omp parallel for collapse(2)
  for (0..h) |i| {
    for (0..w) |i| {
      acc += i;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("distinct"), std::string::npos);
}

TEST(TransformTest, LastprivateOfLoopVariableRejected) {
  // MiniZig loop variables are per-iteration constants with no post-loop
  // value; privatizing one would silently write zeros into the shadowed
  // outer variable.
  auto result = compile_source(R"(
fn f(h: i64, w: i64) void {
  var x: i64 = 0;
  var acc: i64 = 0;
  //#omp parallel for collapse(2) lastprivate(x)
  for (0..h) |y| {
    for (0..w) |x| {
      acc += x;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("loop variable of the associated"),
            std::string::npos);
}

TEST(TransformTest, LastprivateBoundReadsOriginalVariable) {
  // The loop bound must read the *original* variable, not the
  // value-initialized private copy — only body references move to it.
  const std::string out = transformed_dump(R"(
fn f() i64 {
  var n: i64 = 10;
  //#omp parallel for lastprivate(n)
  for (0..n) |i| {
    n = i;
  }
  return n;
}
)");
  // The ws loop header still ranges over `n`; the body assigns `n__lp`.
  EXPECT_NE(out.find("in 0 .. n\n"), std::string::npos) << out;
  EXPECT_NE(out.find("(assign = n__lp i)"), std::string::npos) << out;
}

TEST(TransformTest, CollapseBoundsAreCapturedNotLoopVars) {
  // The nest bounds move into the synthesized prolog inside the region, so
  // `h`/`w` are captured; the loop variables must NOT be (the backends
  // rebind them per iteration from the collapse metadata).
  const std::string out = transformed_dump(R"(
fn f(h: i64, w: i64, x: []f64) void {
  //#omp parallel for collapse(2)
  for (0..h) |i| {
    for (0..w) |j| {
      x[i * w + j] = 1.0;
    }
  }
}
)");
  EXPECT_NE(out.find("[h shared-ptr]"), std::string::npos) << out;
  EXPECT_NE(out.find("[w shared-ptr]"), std::string::npos);
  EXPECT_EQ(out.find("[i shared-ptr]"), std::string::npos) << out;
  EXPECT_EQ(out.find("[j shared-ptr]"), std::string::npos);
}

// -- Negative cases ------------------------------------------------------------

TEST(TransformTest, DefaultNoneRequiresExplicitClauses) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel default(none)
  {
    a += 1;
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("default(none)"), std::string::npos);
}

TEST(TransformTest, DefaultNoneDiagnosticPointsAtUseAndSuggestsClause) {
  // `a` accumulates via += inside the region: the diagnostic must point at
  // the use (line 6, not the directive line) and suggest reduction(+: a).
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel default(none)
  {
    a += 1;
  }
}
)");
  EXPECT_FALSE(result.ok);
  const std::string text = result.diagnostics_text();
  EXPECT_NE(text.find("reduction(+: a)"), std::string::npos) << text;
  EXPECT_NE(text.find("6:"), std::string::npos)
      << "diagnostic should point at the first use on line 6: " << text;
}

TEST(TransformTest, DefaultNoneDiagnosticSuggestsForReadOnlyUse) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  var t: i64 = 0;
  //#omp parallel default(none) private(t)
  {
    t = n;
  }
}
)");
  EXPECT_FALSE(result.ok);
  const std::string text = result.diagnostics_text();
  // `n` is only read: shared or firstprivate are the right fixes.
  EXPECT_NE(text.find("shared(n)"), std::string::npos) << text;
  EXPECT_NE(text.find("firstprivate(n)"), std::string::npos) << text;
}

TEST(TransformTest, DefaultNoneSatisfiedByClauses) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel default(none) shared(a)
  {
    a += 1;
  }
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
}

TEST(TransformTest, ParallelForNeedsLoop) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel for
  a += 1;
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("must immediately precede a for"),
            std::string::npos);
}

TEST(TransformTest, AtomicNeedsCompoundAssignment) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel
  {
    //#omp atomic
    a = 1;
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("compound assignment"),
            std::string::npos);
}

TEST(TransformTest, VariableInTwoClausesRejected) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp parallel shared(a) private(a)
  {
    a += 1;
  }
}
)");
  EXPECT_FALSE(result.ok);
}

TEST(TransformTest, SectionReductionCarriesItsLength) {
  // The section length rides on the capture and on both reduction
  // statements, in the parallel path and in the standalone `for` path.
  const std::string out = transformed_dump(R"(
fn f(n: i64, q: []f64) f64 {
  var s: f64 = 0.0;
  //#omp parallel for reduction(+: s, q[0:10])
  for (0..n) |i| {
    q[@mod(i, 10)] += 1.0;
    s += 1.0;
  }
  //#omp parallel
  {
    //#omp for reduction(max: q[:3])
    for (0..n) |i| {
      q[@mod(i, 3)] = @max(q[@mod(i, 3)], 2.0);
    }
  }
  return s;
}
)");
  EXPECT_NE(out.find("[q[0:10] reduction-ptr +]"), std::string::npos) << out;
  EXPECT_NE(out.find("(omp-red-init q + from q__red[0:10])"), std::string::npos)
      << out;
  EXPECT_NE(out.find("(omp-red-combine q__red[0:10] + q)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("(omp-red-init s + from s__red)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("(omp-red-init q__prv max from q[0:3])"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("(omp-red-combine q[0:3] max q__prv)"), std::string::npos)
      << out;
}

// OpenMP's one-clause rule on worksharing loops: a variable appears in at
// most one data-sharing clause (firstprivate with lastprivate excepted).
// Accepting reduction(+: a) lastprivate(a) used to sum only the last static
// chunk into `a`.
void expect_clause_conflict(const std::string& source,
                            const std::string& message) {
  auto result = compile_source(source);
  EXPECT_FALSE(result.ok) << source;
  const std::string text = result.diagnostics_text();
  EXPECT_NE(text.find(message), std::string::npos) << text;
  EXPECT_EQ(text.find("__"), std::string::npos)
      << "an internal name leaked: " << text;
}

TEST(TransformTest, ReductionWithLastprivateRejected) {
  expect_clause_conflict(R"(
fn f() i64 {
  var a: i64 = 0;
  //#omp parallel for reduction(+: a) lastprivate(a)
  for (0..1000) |i| {
    a += i;
  }
  return a;
}
)",
                         "reduction variable 'a' also appears in another "
                         "clause");
  expect_clause_conflict(R"(
fn f() i64 {
  var a: i64 = 0;
  //#omp parallel
  {
    //#omp for lastprivate(a) reduction(+: a)
    for (0..1000) |i| {
      a += i;
    }
  }
  return a;
}
)",
                         "reduction variable 'a' also appears in another "
                         "clause");
}

TEST(TransformTest, PrivateWithLastprivateRejected) {
  expect_clause_conflict(R"(
fn f() i64 {
  var a: i64 = 0;
  //#omp parallel for private(a) lastprivate(a)
  for (0..1000) |i| {
    a = i;
  }
  return a;
}
)",
                         "variable 'a' appears in multiple data-sharing "
                         "clauses");
}

TEST(TransformTest, VariableInTwoReductionClausesRejected) {
  // The standalone form used to report the engine's private name
  // ("redeclaration of 'a__prv'"); both forms now say the same thing.
  expect_clause_conflict(R"(
fn f() i64 {
  var a: i64 = 0;
  //#omp parallel
  {
    //#omp for reduction(+: a) reduction(max: a)
    for (0..1000) |i| {
      a += i;
    }
  }
  return a;
}
)",
                         "reduction variable 'a' also appears in another "
                         "clause");
  expect_clause_conflict(R"(
fn f() i64 {
  var a: i64 = 0;
  //#omp parallel for reduction(+: a) reduction(max: a)
  for (0..1000) |i| {
    a += i;
  }
  return a;
}
)",
                         "reduction variable 'a' also appears in another "
                         "clause");
}

TEST(TransformTest, SectionCountsUnderItsBaseName) {
  expect_clause_conflict(R"(
fn f(q: []f64) void {
  //#omp parallel for reduction(+: q[0:4]) lastprivate(q)
  for (0..1000) |i| {
    q[@mod(i, 4)] += 1.0;
  }
}
)",
                         "reduction variable 'q' also appears in another "
                         "clause");
}

TEST(TransformTest, TaskCannotCaptureAReductionSection) {
  // The section's private copy is an array on the member's stack, gone once
  // the member leaves the construct; a deferred task could still be running.
  const char* const want =
      "task cannot capture reduction section 'q' inside its construct";
  expect_clause_conflict(R"(
fn f(q: []i64) void {
  //#omp parallel for reduction(+: q[0:4])
  for (0..100) |i| {
    //#omp task
    {
      q[@mod(i, 4)] += 1;
    }
  }
}
)",
                         want);
  expect_clause_conflict(R"(
fn f(q: []i64) void {
  //#omp parallel
  {
    //#omp for reduction(+: q[0:4])
    for (0..100) |i| {
      //#omp task
      {
        q[@mod(i, 4)] += 1;
      }
    }
  }
}
)",
                         want);
}

TEST(TransformTest, NoOmpModeIgnoresDirectives) {
  CompileOptions options;
  options.openmp = false;
  auto result = compile_source(R"(
fn f(n: i64) f64 {
  var s: f64 = 0.0;
  //#omp parallel for reduction(+: s)
  for (0..n) |i| {
    s += 1.0;
  }
  return s;
}
)",
                               options);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.stats.regions_outlined, 0);
  const std::string out = lang::dump_ast(*result.module);
  EXPECT_EQ(out.find("omp-fork"), std::string::npos);
}

}  // namespace
}  // namespace zomp::core
