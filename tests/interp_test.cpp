// Interpreter tests — language semantics and, critically, OpenMP directive
// semantics executed on real runtime threads. This suite is the semantics
// reference for the whole pipeline: what these programs print/return is what
// the transpiled C++ must also produce (gen_kernels_test cross-checks that
// on the NPB kernels).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "interp/interp.h"
#include "runtime/abi.h"
#include "runtime/icv.h"
#include "runtime/team.h"

namespace zomp::interp {
namespace {

struct ProgramRun {
  bool compiled = false;
  std::string output;
  std::string diagnostics;
};

ProgramRun run_program(const std::string& source, bool openmp = true) {
  ProgramRun r;
  core::CompileOptions options;
  options.openmp = openmp;
  auto result = core::compile_source(source, options);
  r.diagnostics = result.diagnostics_text();
  if (!result.ok) return r;
  r.compiled = true;
  std::ostringstream out;
  InterpOptions iopts;
  iopts.out = &out;
  Interp interp(*result.module, iopts);
  EXPECT_TRUE(interp.run_main()) << "no main in:\n" << source;
  r.output = out.str();
  return r;
}

void expect_output(const std::string& source, const std::string& want) {
  const ProgramRun r = run_program(source);
  ASSERT_TRUE(r.compiled) << r.diagnostics;
  EXPECT_EQ(r.output, want) << source;
}

// ---------------------------------------------------------------------------
// Serial language semantics
// ---------------------------------------------------------------------------

TEST(InterpLangTest, ArithmeticAndPrint) {
  expect_output("pub fn main() void { @print(2 + 3 * 4, 10 / 3, 10 % 3); }",
                "14 3 1\n");
  expect_output("pub fn main() void { @print(1.5 * 4.0, -2.5); }", "6 -2.5\n");
  expect_output("pub fn main() void { @print(true and false, true or false, !true); }",
                "false true false\n");
}

TEST(InterpLangTest, IntegerOps) {
  expect_output("pub fn main() void { @print(12 & 10, 12 | 3, 12 ^ 10, 1 << 4, 32 >> 2); }",
                "8 15 6 16 8\n");
}

TEST(InterpLangTest, Comparisons) {
  expect_output("pub fn main() void { @print(1 < 2, 2 <= 2, 3 > 4, 3 >= 4, 1 == 1, 1 != 1); }",
                "true true false false true false\n");
}

TEST(InterpLangTest, ControlFlow) {
  expect_output(R"(
pub fn main() void {
  var s: i64 = 0;
  for (0..10) |i| {
    if (i == 3) { continue; }
    if (i == 7) { break; }
    s += i;
  }
  @print(s);
}
)",
                "18\n");  // 0+1+2+4+5+6
}

TEST(InterpLangTest, WhileContinueExpressionRunsOnContinue) {
  expect_output(R"(
pub fn main() void {
  var i: i64 = 0;
  var s: i64 = 0;
  while (i < 10) : (i += 1) {
    if (@mod(i, 2) == 0) { continue; }
    s += i;
  }
  @print(s);
}
)",
                "25\n");  // 1+3+5+7+9
}

TEST(InterpLangTest, FunctionsAndRecursion) {
  expect_output(R"(
fn fib(n: i64) i64 {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
pub fn main() void { @print(fib(15)); }
)",
                "610\n");
}

TEST(InterpLangTest, SlicesShareStorageAcrossCalls) {
  expect_output(R"(
fn fill(x: []f64, v: f64) void {
  for (0..x.len) |i| {
    x[i] = v;
  }
}
pub fn main() void {
  var a = @alloc(f64, 4);
  fill(a, 2.5);
  @print(a[0] + a[3], a.len);
  @free(a);
}
)",
                "5 4\n");
}

TEST(InterpLangTest, PointersReadAndWrite) {
  expect_output(R"(
fn bump(p: *i64, by: i64) void {
  p.* = p.* + by;
}
pub fn main() void {
  var x: i64 = 40;
  bump(&x, 2);
  @print(x);
  var a = @alloc(i64, 2);
  a[1] = 7;
  var q = &a[1];
  q.* = q.* * 3;
  @print(a[1]);
}
)",
                "42\n21\n");
}

TEST(InterpLangTest, Builtins) {
  expect_output("pub fn main() void { @print(@sqrt(16.0), @abs(-3), @abs(-2.5)); }",
                "4 3 2.5\n");
  expect_output("pub fn main() void { @print(@min(3, 7), @max(3.5, 1.5), @mod(-7, 3)); }",
                "3 3.5 2\n");
  expect_output("pub fn main() void { @print(@intFromFloat(3.9), @floatFromInt(5)); }",
                "3 5\n");
  expect_output("pub fn main() void { @print(@pow(2.0, 10.0), @exp(0.0), @log(1.0)); }",
                "1024 1 0\n");
}

TEST(InterpLangTest, GlobalsPersistAcrossCalls) {
  expect_output(R"(
var counter: i64 = 10;
fn bump() void { counter += 1; }
pub fn main() void {
  bump();
  bump();
  @print(counter);
}
)",
                "12\n");
}

TEST(InterpLangTest, ShadowingScopes) {
  expect_output(R"(
pub fn main() void {
  var a: i64 = 1;
  {
    var a: i64 = 100;
    a += 1;
    @print(a);
  }
  @print(a);
}
)",
                "101\n1\n");
}

// ---------------------------------------------------------------------------
// OpenMP directive semantics
// ---------------------------------------------------------------------------

TEST(InterpOmpTest, ParallelRunsOncePerMember) {
  expect_output(R"(
pub fn main() void {
  var count: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp atomic
    count += 1;
  }
  @print(count);
}
)",
                "4\n");
}

TEST(InterpOmpTest, SharedScalarWritesVisibleAfterJoin) {
  expect_output(R"(
pub fn main() void {
  var flag: i64 = 0;
  //#omp parallel num_threads(3)
  {
    //#omp master
    {
      flag = 77;
    }
  }
  @print(flag);
}
)",
                "77\n");
}

TEST(InterpOmpTest, PrivateCopiesDoNotLeak) {
  expect_output(R"(
pub fn main() void {
  var a: i64 = 5;
  //#omp parallel private(a) num_threads(4)
  {
    a = 1000;
  }
  @print(a);
}
)",
                "5\n");
}

TEST(InterpOmpTest, FirstprivateSeesInitialValue) {
  expect_output(R"(
pub fn main() void {
  var base: i64 = 30;
  var sum: i64 = 0;
  //#omp parallel firstprivate(base) num_threads(4) reduction(+: sum)
  {
    base += 12;
    sum += base;
  }
  @print(sum);
}
)",
                "168\n");  // 4 threads x (30+12)
}

TEST(InterpOmpTest, ParallelForCoversIterationSpace) {
  expect_output(R"(
pub fn main() void {
  const n: i64 = 1000;
  var a = @alloc(i64, n);
  //#omp parallel for num_threads(4)
  for (0..n) |i| {
    a[i] = a[i] + 1;
  }
  var total: i64 = 0;
  for (0..n) |i| {
    total += a[i];
  }
  @print(total);
  @free(a);
}
)",
                "1000\n");
}

struct ScheduleCase {
  const char* clause;
};

class InterpScheduleTest : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(InterpScheduleTest, ReductionMatchesClosedForm) {
  // sum of 0..n-1 = n(n-1)/2 must hold for every schedule.
  const std::string source = std::string(R"(
pub fn main() void {
  const n: i64 = 500;
  var sum: i64 = 0;
  //#omp parallel for reduction(+: sum) num_threads(4) )") +
                             GetParam().clause + R"(
  for (0..n) |i| {
    sum += i;
  }
  @print(sum);
}
)";
  const ProgramRun r = run_program(source);
  ASSERT_TRUE(r.compiled) << r.diagnostics;
  EXPECT_EQ(r.output, "124750\n") << GetParam().clause;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, InterpScheduleTest,
    ::testing::Values(ScheduleCase{""}, ScheduleCase{"schedule(static)"},
                      ScheduleCase{"schedule(static, 1)"},
                      ScheduleCase{"schedule(static, 7)"},
                      ScheduleCase{"schedule(dynamic, 1)"},
                      ScheduleCase{"schedule(dynamic, 16)"},
                      ScheduleCase{"schedule(guided, 2)"},
                      ScheduleCase{"schedule(auto)"},
                      ScheduleCase{"schedule(runtime)"}));

struct ReduceOpCase {
  const char* op;
  const char* init;
  const char* update;
  const char* want;
};

class InterpReduceOpTest : public ::testing::TestWithParam<ReduceOpCase> {};

TEST_P(InterpReduceOpTest, CombinesCorrectly) {
  const ReduceOpCase& c = GetParam();
  const std::string source = std::string("pub fn main() void {\n  var acc: i64 = ") +
                             c.init + ";\n  //#omp parallel for reduction(" +
                             c.op + ": acc) num_threads(3)\n  for (1..8) |i| {\n    " +
                             c.update + "\n  }\n  @print(acc);\n}\n";
  const ProgramRun r = run_program(source);
  ASSERT_TRUE(r.compiled) << r.diagnostics;
  EXPECT_EQ(r.output, std::string(c.want) + "\n") << source;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, InterpReduceOpTest,
    ::testing::Values(
        ReduceOpCase{"+", "100", "acc += i;", "128"},      // 100 + 28
        ReduceOpCase{"*", "1", "acc *= i;", "5040"},       // 7!
        ReduceOpCase{"min", "99", "acc = @min(acc, i);", "1"},
        ReduceOpCase{"max", "-5", "acc = @max(acc, i);", "7"},
        ReduceOpCase{"&", "-1", "acc = acc & (i | 8);", "8"},
        ReduceOpCase{"|", "0", "acc = acc | i;", "7"},
        ReduceOpCase{"^", "0", "acc = acc ^ i;", "0"}));  // xor of 1..7

TEST(InterpOmpTest, ReductionPastPackCapCombinesEveryVariable) {
  // 17 variables, past the old 16-entry pack cap, ride one 17-entry pack;
  // every variable folds into its own target: r_v = (v + 1) * (0 + .. + 9).
  std::string decls, clauses, body, prints;
  for (int v = 0; v < 17; ++v) {
    const std::string name = "r" + std::to_string(v);
    decls += "  var " + name + ": i64 = 0;\n";
    clauses += " reduction(+: " + name + ")";
    body += "    " + name + " += i * " + std::to_string(v + 1) + ";\n";
    prints += (v > 0 ? ", " : "") + name;
  }
  std::string want;
  for (int v = 0; v < 17; ++v) {
    want += (v > 0 ? " " : "") + std::to_string(45 * (v + 1));
  }
  expect_output("pub fn main() void {\n" + decls +
                    "  //#omp parallel for num_threads(4)" + clauses +
                    "\n  for (0..10) |i| {\n" + body + "  }\n  @print(" +
                    prints + ");\n}\n",
                want + "\n");
}

TEST(InterpOmpTest, StandaloneForSplitsAmongTeam) {
  expect_output(R"(
pub fn main() void {
  const n: i64 = 100;
  var sum: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp for reduction(+: sum)
    for (0..n) |i| {
      sum += 1;
    }
  }
  @print(sum);
}
)",
                "100\n");
}

TEST(InterpOmpTest, SingleRunsOncePerInstance) {
  expect_output(R"(
pub fn main() void {
  var count: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp single
    {
      count += 1;
    }
    //#omp single
    {
      count += 10;
    }
  }
  @print(count);
}
)",
                "11\n");
}

TEST(InterpOmpTest, CriticalProtectsSharedUpdates) {
  expect_output(R"(
pub fn main() void {
  var count: i64 = 0;
  //#omp parallel num_threads(4)
  {
    for (0..500) |i| {
      //#omp critical
      {
        count += 1;
      }
    }
  }
  @print(count);
}
)",
                "2000\n");
}

TEST(InterpOmpTest, AtomicOnSliceElement) {
  expect_output(R"(
pub fn main() void {
  var cells = @alloc(i64, 2);
  //#omp parallel num_threads(4)
  {
    for (0..100) |i| {
      //#omp atomic
      cells[0] += 1;
      //#omp atomic
      cells[1] += 2;
    }
  }
  @print(cells[0], cells[1]);
  @free(cells);
}
)",
                "400 800\n");
}

TEST(InterpOmpTest, OrderedIterationsInSequence) {
  expect_output(R"(
pub fn main() void {
  const n: i64 = 30;
  var log = @alloc(i64, n);
  var pos: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp for ordered schedule(dynamic, 1)
    for (0..n) |i| {
      //#omp ordered
      {
        log[pos] = i;
        pos += 1;
      }
    }
  }
  var sorted: i64 = 1;
  for (1..n) |i| {
    if (log[i] <= log[i - 1]) { sorted = 0; }
  }
  @print(sorted, pos);
  @free(log);
}
)",
                "1 30\n");
}

TEST(InterpOmpTest, LastprivateTakesLastIteration) {
  expect_output(R"(
pub fn main() void {
  const n: i64 = 100;
  var last: i64 = -1;
  //#omp parallel for lastprivate(last) num_threads(4) schedule(static, 3)
  for (0..n) |i| {
    last = i * 2;
  }
  @print(last);
}
)",
                "198\n");
}

TEST(InterpOmpTest, NumThreadsExpressionEvaluated) {
  expect_output(R"(
extern fn mz_omp_get_num_threads() i64;
pub fn main() void {
  const half: i64 = 2;
  var nt: i64 = 0;
  //#omp parallel num_threads(half * 2)
  {
    //#omp master
    {
      nt = mz_omp_get_num_threads();
    }
  }
  @print(nt);
}
)",
                "4\n");
}

TEST(InterpOmpTest, IfClauseSerialises) {
  expect_output(R"(
extern fn mz_omp_get_num_threads() i64;
pub fn main() void {
  var nt: i64 = 0;
  const go: bool = false;
  //#omp parallel num_threads(4) if(go)
  {
    nt = mz_omp_get_num_threads();
  }
  @print(nt);
}
)",
                "1\n");
}

TEST(InterpOmpTest, TasksRunToCompletion) {
  expect_output(R"(
pub fn main() void {
  var done: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp single
    {
      for (0..50) |i| {
        //#omp task
        {
          //#omp atomic
          done += 1;
        }
      }
      //#omp taskwait
      @print(done);
    }
  }
}
)",
                "50\n");
}

TEST(InterpOmpTest, TaskCapturesByValue) {
  expect_output(R"(
pub fn main() void {
  var sum: i64 = 0;
  //#omp parallel num_threads(2)
  {
    //#omp single
    {
      for (0..10) |i| {
        const v = i * i;
        //#omp task
        {
          //#omp atomic
          sum += v;
        }
      }
    }
  }
  @print(sum);
}
)",
                "285\n");
}

TEST(InterpOmpTest, NestedParallelSerialisedByDefault) {
  expect_output(R"(
extern fn mz_omp_get_num_threads() i64;
pub fn main() void {
  var inner: i64 = 0;
  //#omp parallel num_threads(2)
  {
    //#omp master
    {
      //#omp parallel num_threads(4)
      {
        //#omp master
        {
          inner = mz_omp_get_num_threads();
        }
      }
    }
  }
  @print(inner);
}
)",
                "1\n");
}

// -- Serial/parallel equivalence property -------------------------------------

TEST(InterpEquivalenceTest, OpenmpOnOffGiveSameIntegerResults) {
  // Integer programs must produce identical output with the directive engine
  // enabled and disabled — the transform must preserve semantics.
  const std::string source = R"(
pub fn main() void {
  const n: i64 = 300;
  var a = @alloc(i64, n);
  var sum: i64 = 0;
  var last: i64 = 0;
  //#omp parallel for reduction(+: sum) lastprivate(last) schedule(guided, 3) num_threads(4)
  for (0..n) |i| {
    a[i] = i * 3;
    sum += a[i];
    last = a[i];
  }
  @print(sum, last);
  @free(a);
}
)";
  const ProgramRun with_omp = run_program(source, /*openmp=*/true);
  const ProgramRun without = run_program(source, /*openmp=*/false);
  ASSERT_TRUE(with_omp.compiled);
  ASSERT_TRUE(without.compiled);
  EXPECT_EQ(with_omp.output, without.output);
  EXPECT_EQ(with_omp.output, "134550 897\n");
}

TEST(InterpHostFnTest, CustomHostFunctionsCallable) {
  auto result = core::compile_source(R"(
extern fn host_add(a: i64, b: i64) i64;
pub fn main() void { @print(host_add(20, 22)); }
)");
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  std::ostringstream out;
  InterpOptions opts;
  opts.out = &out;
  Interp interp(*result.module, opts);
  interp.register_host_fn("host_add", [](std::vector<Value>& args) {
    return Value(args[0].as_i64() + args[1].as_i64());
  });
  ASSERT_TRUE(interp.run_main());
  EXPECT_EQ(out.str(), "42\n");
}

TEST(InterpHostFnTest, GetCancellationFollowsTheIcv) {
  // The runtime-query host fns are pre-registered; this one was exported by
  // the ABI but missing from the interpreter's table.
  const std::string source = R"(
extern fn mz_omp_get_cancellation() i64;
pub fn main() void { @print(mz_omp_get_cancellation()); }
)";
  rt::GlobalIcv& icv = rt::GlobalIcv::instance();
  const bool saved = icv.cancellation();
  icv.set_cancellation(true);
  expect_output(source, "1\n");
  icv.set_cancellation(false);
  expect_output(source, "0\n");
  icv.set_cancellation(saved);
}

TEST(InterpHostFnTest, MiniZigArgumentsSaturateToI32) {
  // An i64 past the i32 range clamps to the nearest bound: 2^32 is an
  // out-of-range level or place, not a wrapped-around 0.
  const rt::Icv saved = rt::current_thread().icv;
  expect_output(R"(
extern fn mz_omp_get_team_size(level: i64) i64;
extern fn mz_omp_get_place_num_procs(place: i64) i64;
extern fn mz_omp_set_num_threads(n: i64) void;
extern fn mz_omp_get_max_threads() i64;
pub fn main() void {
  @print(mz_omp_get_team_size(4294967296), mz_omp_get_team_size(-4294967296),
         mz_omp_get_place_num_procs(4294967296));
  mz_omp_set_num_threads(4294967299);
  @print(mz_omp_get_max_threads());
}
)",
                "-1 -1 0\n2147483647\n");
  rt::current_thread().icv = saved;
}

/// trace_flush answers whether a write succeeded, which a second call need
/// not repeat; like the double() rows it is checked for sign only.
bool sign_only(std::string_view q) { return q == "trace_flush"; }

/// The levels and places every int(int) row is read at.
constexpr std::int64_t kIntArgs[] = {-1, 0, 1, 2};

/// The routine table (runtime/abi.h) as one MiniZig program: `report(n)`
/// calls the setter rows with n and the void() rows, prints every other row
/// on one line, then calls the host fn `native_report(n)`, which repeats
/// those calls natively on the same thread.
std::string routine_program() {
  std::string decls, effects, values;
  const auto print = [&values](const std::string& expr) {
    values += (values.empty() ? "" : ", ") + expr;
  };
#define MZ_INT(q, impl)                        \
  decls += "extern fn mz_omp_" #q "() i64;\n"; \
  print(sign_only(#q) ? "mz_omp_" #q "() >= 0" : "mz_omp_" #q "()");
#define MZ_INT_INT(q, impl)                          \
  decls += "extern fn mz_omp_" #q "(a: i64) i64;\n"; \
  for (const std::int64_t a : kIntArgs)              \
    print("mz_omp_" #q "(" + std::to_string(a) + ")");
#define MZ_VOID_INT(q, impl)                          \
  decls += "extern fn mz_omp_" #q "(a: i64) void;\n"; \
  effects += "  mz_omp_" #q "(n);\n";
#define MZ_DOUBLE(q, impl)                     \
  decls += "extern fn mz_omp_" #q "() f64;\n"; \
  print("mz_omp_" #q "() >= 0.0");
#define MZ_VOID(q, impl)                        \
  decls += "extern fn mz_omp_" #q "() void;\n"; \
  effects += "  mz_omp_" #q "();\n";
  ZOMP_ROUTINES(MZ_INT, MZ_INT_INT, MZ_VOID_INT, MZ_DOUBLE, MZ_VOID)
#undef MZ_INT
#undef MZ_INT_INT
#undef MZ_VOID_INT
#undef MZ_DOUBLE
#undef MZ_VOID
  return decls + "extern fn native_report(n: i64) void;\n" +
         "fn report(n: i64) void {\n" + effects + "  @print(" + values +
         ");\n  native_report(n);\n}\n" + R"(
pub fn main() void {
  report(5);
  //#omp parallel num_threads(3)
  {
    report(2 + mz_omp_get_thread_num());
  }
}
)";
}

/// The line `report(n)` prints, from the native mz_omp_ calls.
std::string native_report(std::int64_t n) {
  std::vector<std::string> values;
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
#define SKIP(q, impl)
#define NATIVE_VOID_INT(q, impl) mz_omp_##q(n);
#define NATIVE_VOID(q, impl) mz_omp_##q();
  ZOMP_ROUTINES(SKIP, SKIP, NATIVE_VOID_INT, SKIP, NATIVE_VOID)
#define NATIVE_INT(q, impl)                                \
  values.push_back(sign_only(#q) ? flag(mz_omp_##q() >= 0) \
                                 : std::to_string(mz_omp_##q()));
#define NATIVE_INT_INT(q, impl)         \
  for (const std::int64_t a : kIntArgs) \
    values.push_back(std::to_string(mz_omp_##q(a)));
#define NATIVE_DOUBLE(q, impl) values.push_back(flag(mz_omp_##q() >= 0.0));
  ZOMP_ROUTINES(NATIVE_INT, NATIVE_INT_INT, SKIP, NATIVE_DOUBLE, SKIP)
#undef SKIP
#undef NATIVE_VOID_INT
#undef NATIVE_VOID
#undef NATIVE_INT
#undef NATIVE_INT_INT
#undef NATIVE_DOUBLE
  std::string line;
  for (const std::string& v : values) line += (line.empty() ? "" : " ") + v;
  return line + "\n";
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(InterpHostFnTest, EveryRoutineRowMatchesTheNativeCall) {
  // Serially and on each member of a 3-thread region, the interpreter's
  // line must equal the native one computed right after in the same
  // context: a missing, misnamed or mis-converted binding shows up here.
  const std::string source = routine_program();
  auto result = core::compile_source(source);
  ASSERT_TRUE(result.ok) << result.diagnostics_text() << source;
  std::ostringstream out;
  std::mutex native_mutex;
  std::string native;
  InterpOptions opts;
  opts.out = &out;
  Interp interp(*result.module, opts);
  interp.register_host_fn("native_report", [&](std::vector<Value>& args) {
    const std::string line = native_report(args.at(0).as_i64());
    const std::lock_guard<std::mutex> lock(native_mutex);
    native += line;
    return Value();
  });
  const rt::Icv saved = rt::current_thread().icv;
  testing::internal::CaptureStderr();
  ASSERT_TRUE(interp.run_main());
  const std::string affinity = testing::internal::GetCapturedStderr();
  rt::current_thread().icv = saved;

  EXPECT_EQ(sorted_lines(out.str()).size(), 4u) << out.str();
  EXPECT_EQ(sorted_lines(out.str()), sorted_lines(native)) << source;
  // display_affinity ran once per report on each side.
  EXPECT_EQ(sorted_lines(affinity).size(), 8u) << affinity;
}

TEST(InterpApiTest, CallByNameReturnsValue) {
  auto result = core::compile_source(R"(
pub fn square(x: f64) f64 { return x * x; }
)");
  ASSERT_TRUE(result.ok);
  Interp interp(*result.module);
  const Value v = interp.call_by_name("square", {Value(3.0)});
  EXPECT_DOUBLE_EQ(v.as_f64(), 9.0);
}

}  // namespace
}  // namespace zomp::interp
