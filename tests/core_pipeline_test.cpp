// Pipeline-level tests: compile_source error flows, stats, and a
// directive × construct validity grid (property-style sweep over the
// combinations a user can write).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/pipeline.h"

namespace zomp::core {
namespace {

TEST(PipelineTest, OkPathProducesModuleAndStats) {
  auto result = compile_source(R"(
pub fn main() void {
  var n: i64 = 0;
  //#omp parallel
  {
    //#omp atomic
    n += 1;
  }
}
)");
  EXPECT_TRUE(result.ok);
  ASSERT_NE(result.module, nullptr);
  EXPECT_EQ(result.stats.directives_seen, 2);
  EXPECT_EQ(result.stats.regions_outlined, 1);
  EXPECT_TRUE(result.diagnostics_text().empty()) << result.diagnostics_text();
}

TEST(PipelineTest, ModuleNameFlowsThrough) {
  CompileOptions options;
  options.module_name = "custom_name";
  auto result = compile_source("fn f() void {}", options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.module->name, "custom_name");
}

TEST(PipelineTest, LexErrorStopsEarly) {
  auto result = compile_source("fn f() void { \"unterminated }");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("unterminated"), std::string::npos);
}

TEST(PipelineTest, ParseErrorStopsBeforeTransform) {
  auto result = compile_source("fn f( { }");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.stats.directives_seen, 0);
}

TEST(PipelineTest, TransformErrorReported) {
  auto result = compile_source(R"(
fn f() void {
  var a: i64 = 0;
  //#omp bogus_directive
  a += 1;
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("unknown OpenMP directive"),
            std::string::npos);
}

TEST(PipelineTest, SemaErrorAfterTransformReported) {
  // The directive is fine; the body has a type error that only sema sees.
  auto result = compile_source(R"(
fn f(n: i64) void {
  var s: f64 = 0.0;
  //#omp parallel for reduction(+: s)
  for (0..n) |i| {
    s += i;
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("cannot assign i64 to f64"),
            std::string::npos);
}

TEST(PipelineTest, ReductionOnBoolRejected) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  var ok: bool = true;
  //#omp parallel for reduction(+: ok)
  for (0..n) |i| {
    ok = ok and true;
  }
}
)");
  EXPECT_FALSE(result.ok);
}

// A region writes a const variable through its capture: the body assigns
// the shared `a`, the winner's combine folds into it, or the last
// iteration writes it back. Each is rejected with the text the same
// assignment in a serial loop gets, naming the variable as written. The
// loop is a combined `parallel for` or a standalone `for` in a region.
struct ConstWriteCase {
  const char* construct;  // "parallel for", or "for" inside `parallel`
  const char* clauses;
};

void PrintTo(const ConstWriteCase& c, std::ostream* os) {
  *os << c.construct << ' ' << c.clauses;
}

class ConstCaptureWriteTest
    : public ::testing::TestWithParam<ConstWriteCase> {};

TEST_P(ConstCaptureWriteTest, Rejected) {
  const ConstWriteCase& c = GetParam();
  std::string loop = std::string("  //#omp ") + c.construct + " " +
                     c.clauses + "\n  for (0..n) |i| {\n    a = i;\n  }\n";
  if (std::string(c.construct) == "for") {
    loop = "  //#omp parallel\n  {\n" + loop + "  }\n";
  }
  const std::string source =
      "fn f(n: i64) i64 {\n  const a: i64 = 5;\n" + loop + "  return a;\n}\n";
  auto result = compile_source(source);
  EXPECT_FALSE(result.ok) << source;
  const std::string text = result.diagnostics_text();
  EXPECT_NE(text.find("cannot assign to const 'a'"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("a__"), std::string::npos) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Clauses, ConstCaptureWriteTest,
    ::testing::Values(ConstWriteCase{"parallel for", ""},
                      ConstWriteCase{"parallel for", "reduction(+: a)"},
                      ConstWriteCase{"parallel for", "lastprivate(a)"},
                      ConstWriteCase{"parallel for",
                                     "firstprivate(a) lastprivate(a)"},
                      ConstWriteCase{"for", "reduction(+: a)"},
                      ConstWriteCase{"for", "lastprivate(a)"}));

TEST(PipelineTest, CapturedSliceRebindWarningFreeButWorks) {
  // Rebinding a value-captured slice header inside a region must type-check
  // (the write hits the copy; sharing applies to the payload only).
  auto result = compile_source(R"(
fn f(x: []f64, y: []f64) void {
  //#omp parallel
  {
    x = y;
    x[0] = 1.0;
  }
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
}

// -- Directive × construct validity grid ----------------------------------------

struct GridCase {
  const char* directive;   // text after //#omp
  const char* statement;   // the associated statement
  bool ok;
};

class DirectiveGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(DirectiveGridTest, Combination) {
  const GridCase& c = GetParam();
  const std::string source = std::string(R"(
fn f(n: i64, x: []f64) void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp )") + c.directive + "\n    " +
                             c.statement + R"(
  }
}
)";
  auto result = compile_source(source);
  EXPECT_EQ(result.ok, c.ok) << source << "\n" << result.diagnostics_text();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DirectiveGridTest,
    ::testing::Values(
        // worksharing needs the canonical loop
        GridCase{"for", "for (0..n) |i| { x[0] = 1.0; }", true},
        GridCase{"for", "acc += 1;", false},
        GridCase{"for schedule(dynamic, 2)", "for (0..n) |i| { }", true},
        GridCase{"for nowait", "for (0..n) |i| { }", true},
        // atomic needs a compound assignment
        GridCase{"atomic", "acc += 1;", true},
        GridCase{"atomic", "acc = 1;", false},
        GridCase{"atomic", "x[0] *= 2.0;", true},
        GridCase{"atomic", "for (0..n) |i| { }", false},
        // block constructs accept any statement
        GridCase{"critical", "acc += 1;", true},
        GridCase{"critical(name)", "{ acc += 1; }", true},
        GridCase{"single", "{ acc += 1; }", true},
        GridCase{"single nowait", "acc += 1;", true},
        GridCase{"master", "{ acc += 1; }", true},
        GridCase{"task", "{ var t: i64 = acc; t += 1; }", true},
        // standalone directives precede statements without consuming them
        GridCase{"barrier", "acc += 1;", true},
        GridCase{"taskwait", "acc += 1;", true},
        // nested parallel
        GridCase{"parallel num_threads(2)", "{ acc += 1; }", true},
        GridCase{"parallel if(n > 3)", "{ acc += 1; }", true}));

TEST(PipelineTest, DeeplyNestedDirectivesCompose) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  var total: i64 = 0;
  //#omp parallel num_threads(2)
  {
    //#omp single
    {
      //#omp task
      {
        //#omp atomic
        total += 1;
      }
    }
    //#omp barrier
    //#omp for reduction(+: total)
    for (0..n) |i| {
      total += 1;
    }
  }
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_EQ(result.stats.regions_outlined, 1);
  EXPECT_EQ(result.stats.tasks_outlined, 1);
  EXPECT_EQ(result.stats.ws_loops, 1);
}

// -- Cancellation: closely-nested rules and hazard warnings ------------------
//
// sema's check only runs after the core transform has lowered //#omp, so
// these go through compile_source rather than run_sema.

TEST(PipelineCancelTest, CloselyNestedFormsAccepted) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp cancellation point parallel
    //#omp for
    for (0..n) |i| {
      //#omp cancellation point for
      acc += 1;
      if (i == 3) {
        //#omp cancel for
      }
    }
    //#omp cancel parallel
  }
  //#omp parallel
  {
    //#omp single
    {
      //#omp taskgroup
      {
        //#omp task
        {
          //#omp cancel taskgroup
          acc += 1;
        }
      }
    }
  }
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
}

TEST(PipelineCancelTest, OrphanedCancelBindsDynamically) {
  // No statically enclosing construct: binding is resolved at runtime, so
  // sema must not reject it.
  auto result = compile_source(R"(
fn helper() void {
  //#omp cancellation point parallel
  //#omp cancel parallel
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
}

TEST(PipelineCancelTest, CancelParallelInsideWsLoopRejected) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  //#omp parallel
  {
    //#omp for
    for (0..n) |i| {
      //#omp cancel parallel
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find(
                "'cancel parallel' must be closely nested inside a parallel "
                "region"),
            std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, CancelForOutsideLoopRejected) {
  auto result = compile_source(R"(
fn f() void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp cancel for
    acc += 1;
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find(
                "'cancel for' must be closely nested inside a worksharing "
                "loop"),
            std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, CancelTaskgroupOutsideTaskRejected) {
  auto result = compile_source(R"(
fn f() void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp taskgroup
    {
      //#omp cancel taskgroup
      acc += 1;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(
      result.diagnostics_text().find("'cancel taskgroup' must be closely "
                                     "nested inside a task"),
      std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, InterveningConstructBreaksCloseNesting) {
  // single between parallel and the cancel: kOther intervenes.
  auto result = compile_source(R"(
fn f() void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp single
    {
      //#omp cancel parallel
      acc += 1;
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("another construct intervenes"),
            std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, CancellationPointsObeySameNesting) {
  auto result = compile_source(R"(
fn f(n: i64) void {
  //#omp parallel
  {
    //#omp for
    for (0..n) |i| {
      //#omp cancellation point parallel
    }
  }
}
)");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostics_text().find("'cancellation point parallel'"),
            std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, BarrierAfterCancelWarns) {
  auto result = compile_source(R"(
fn f() void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp cancel parallel
    //#omp barrier
    acc += 1;
  }
}
)");
  // A warning, not an error: the program is legal but almost certainly hangs.
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_NE(result.diagnostics_text().find("barrier immediately after "
                                           "'cancel'"),
            std::string::npos)
      << result.diagnostics_text();
}

TEST(PipelineCancelTest, BarrierAfterTaskgroupCancelDoesNotWarn) {
  // cancel taskgroup does not abandon barriers, so the hazard warning must
  // stay quiet even for a textually adjacent barrier.
  auto result = compile_source(R"(
fn f() void {
  var acc: i64 = 0;
  //#omp parallel
  {
    //#omp single
    {
      //#omp task
      {
        //#omp cancel taskgroup
        //#omp barrier
        acc += 1;
      }
    }
  }
}
)");
  EXPECT_TRUE(result.ok) << result.diagnostics_text();
  EXPECT_TRUE(result.diagnostics_text().empty()) << result.diagnostics_text();
}

TEST(PipelineTest, OutlinedFunctionNamesAreUniqueAndScoped) {
  auto result = compile_source(R"(
fn alpha() void {
  var a: i64 = 0;
  //#omp parallel
  {
    a += 1;
  }
}
fn beta() void {
  var b: i64 = 0;
  //#omp parallel
  {
    b += 1;
  }
}
)");
  ASSERT_TRUE(result.ok);
  int outlined = 0;
  for (const auto& fn : result.module->functions) {
    if (fn->is_outlined) {
      ++outlined;
      EXPECT_TRUE(fn->name.find("__omp_alpha_") != std::string::npos ||
                  fn->name.find("__omp_beta_") != std::string::npos)
          << fn->name;
    }
  }
  EXPECT_EQ(outlined, 2);
}

}  // namespace
}  // namespace zomp::core
