// Per-pass golden tests for the -O1 optimizer pipeline (core/passes.h):
// each pass's effect is pinned through the post-pass IR dump
// (CompileOptions::dump_ir, the same hook behind `mzc --dump-ir=<pass>`)
// plus the PassStats counters. A final interpreter smoke run checks that a
// folded module with its dead captures dropped still computes the same
// answers as the -O0 module.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/passes.h"
#include "core/pipeline.h"
#include "interp/interp.h"

namespace zomp::core {
namespace {

CompileResult compile_at(const std::string& source, int opt_level,
                         std::vector<std::string> dump_ir = {"all"}) {
  CompileOptions options;
  options.module_name = "passes_test";
  options.opt_level = opt_level;
  options.dump_ir = std::move(dump_ir);
  return compile_source(source, options);
}

/// IR text captured after `pass` ran (empty string + test failure if the
/// pass never reported a dump).
std::string dump_after(const CompileResult& result, const std::string& pass) {
  for (const auto& [name, text] : result.ir_dumps) {
    if (name == pass) return text;
  }
  ADD_FAILURE() << "no IR dump recorded for pass '" << pass << "'";
  return std::string();
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Two adjacent regions over constant bounds and a constant team: the
// canonical input both optimizer passes fire on (fold the bounds + team,
// then drop each region's now-dead `n` capture).
const char* kTwoRegions = R"(
pub fn sum_two(out: []i64) void {
  const n: i64 = 1024;
  var s1: i64 = 0;
  var s2: i64 = 0;
  //#omp parallel for reduction(+: s1) num_threads(4)
  for (0..n) |i| {
    s1 += i;
  }
  //#omp parallel for reduction(+: s2) num_threads(4)
  for (0..n) |i| {
    s2 += i * 2;
  }
  out[0] = s1;
  out[1] = s2;
}
)";

// -- pipeline shape ---------------------------------------------------------

TEST(PassPipelineTest, DefaultPipelineOrder) {
  PassManager o1;
  build_default_pipeline(o1, /*opt_level=*/1, /*openmp=*/true);
  const std::vector<std::string> expected = {
      "omp-lower", "sema", "fold", "dce-hoist", "verify"};
  EXPECT_EQ(o1.pass_names(), expected);

  PassManager o0;
  build_default_pipeline(o0, /*opt_level=*/0, /*openmp=*/true);
  const std::vector<std::string> historical = {"omp-lower", "sema"};
  EXPECT_EQ(o0.pass_names(), historical);
}

TEST(PassPipelineTest, OptLevelZeroRunsNoOptimizerPass) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/0);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  // Only the historical stages dumped anything...
  ASSERT_EQ(result.ir_dumps.size(), 2u);
  EXPECT_EQ(result.ir_dumps[0].first, "omp-lower");
  EXPECT_EQ(result.ir_dumps[1].first, "sema");

  // ...and no optimizer marker reached the module.
  const std::string& final_ir = result.ir_dumps.back().second;
  EXPECT_FALSE(contains(final_ir, "hoist@"));
  EXPECT_EQ(result.pass_stats.folded_operands, 0);
  EXPECT_EQ(result.pass_stats.dead_captures, 0);
  EXPECT_EQ(result.pass_stats.hoisted_forks, 0);
}

// -- fold -------------------------------------------------------------------

TEST(FoldPassTest, LiteralizesDirectiveOperandsAndDropsTrueIf) {
  auto result = compile_at(R"(
pub fn fill(a: []i64) void {
  const t: i64 = 2 + 2;
  const n: i64 = 16 * 4;
  //#omp parallel for num_threads(t) if(n > 0)
  for (0..n) |i| {
    a[i] = i;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  const std::string before = dump_after(result, "sema");
  EXPECT_TRUE(contains(before, "num_threads=t")) << before;
  EXPECT_TRUE(contains(before, "if=")) << before;

  const std::string after = dump_after(result, "fold");
  // num_threads(t) became the literal 4, the loop bound became 64, and the
  // always-true if clause disappeared entirely.
  EXPECT_TRUE(contains(after, "num_threads=4")) << after;
  EXPECT_TRUE(contains(after, "0 .. 64")) << after;
  EXPECT_FALSE(contains(after, "if=")) << after;
  EXPECT_GE(result.pass_stats.folded_operands, 3);
}

TEST(FoldPassTest, MutableOperandsAreLeftAlone) {
  auto result = compile_at(R"(
pub fn fill(a: []i64, n: i64) void {
  var t: i64 = 2;
  t += 2;
  //#omp parallel for num_threads(t)
  for (0..n) |i| {
    a[i] = i;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  const std::string after = dump_after(result, "fold");
  // `t` is mutable and `n` is a parameter: neither may be literalized.
  EXPECT_TRUE(contains(after, "num_threads=t")) << after;
  EXPECT_TRUE(contains(after, "0 .. n")) << after;
}

// -- dce-hoist --------------------------------------------------------------

TEST(DceHoistPassTest, DropsCapturesMadeDeadByFolding) {
  auto result = compile_at(kTwoRegions, /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();

  // Fold literalized every use of n inside the outlined bodies, so each
  // region still carries a dead [n ...] capture until dce runs.
  EXPECT_TRUE(contains(dump_after(result, "fold"), "[n "));
  const std::string after = dump_after(result, "dce-hoist");
  EXPECT_FALSE(contains(after, "[n ")) << after;
  EXPECT_EQ(result.pass_stats.dead_captures, 2);
}

TEST(DceHoistPassTest, MarksLoopInvariantForksHoistable) {
  auto result = compile_at(R"(
pub fn iterate(a: []i64) void {
  const n: i64 = 64;
  var scale: i64 = 3;
  for (0..10) |t| {
    //#omp parallel for num_threads(2)
    for (0..n) |i| {
      a[i] = a[i] + scale;
    }
    scale += 1;
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  // Every captured address (a, scale) is declared outside the serial loop:
  // the void* argument pack can be built once, before the loop.
  EXPECT_EQ(result.pass_stats.hoisted_forks, 1);
  EXPECT_TRUE(contains(dump_after(result, "dce-hoist"), "hoist@1"));
}

TEST(DceHoistPassTest, LoopLocalCaptureBlocksHoisting) {
  auto result = compile_at(R"(
pub fn iterate(a: []i64) void {
  const n: i64 = 64;
  for (0..10) |t| {
    var local: i64 = t;
    //#omp parallel for num_threads(2)
    for (0..n) |i| {
      a[i] = a[i] + local;
    }
  }
}
)",
                           /*opt_level=*/1);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  // `local` lives in the loop body's scope — its address is reborn every
  // iteration, so the pack must be rebuilt per iteration too.
  EXPECT_EQ(result.pass_stats.hoisted_forks, 0);
  EXPECT_FALSE(contains(dump_after(result, "dce-hoist"), "hoist@"));
}

// -- end-to-end semantics ---------------------------------------------------

// The optimized module (folded + dead captures dropped) must compute exactly
// what the -O0 module does, lastprivate writeback included.
TEST(PassPipelineTest, OptimizedModuleMatchesO0Semantics) {
  const char* source = R"(
pub fn run(out: []i64) void {
  const n: i64 = 100;
  var s1: i64 = 0;
  var s2: i64 = 0;
  var last: i64 = -1;
  //#omp parallel for reduction(+: s1) lastprivate(last) num_threads(4)
  for (0..n) |i| {
    s1 += i;
    last = i * 2;
  }
  //#omp parallel for reduction(+: s2) num_threads(4)
  for (0..n) |i| {
    s2 += i + 1;
  }
  out[0] = s1;
  out[1] = s2;
  out[2] = last;
}
)";

  auto o1 = compile_at(source, /*opt_level=*/1, /*dump_ir=*/{});
  ASSERT_TRUE(o1.ok) << o1.diagnostics_text();
  // Prove the optimized path is what actually runs below.
  EXPECT_GT(o1.pass_stats.folded_operands, 0);
  EXPECT_GT(o1.pass_stats.dead_captures, 0);

  auto o0 = compile_at(source, /*opt_level=*/0, /*dump_ir=*/{});
  ASSERT_TRUE(o0.ok) << o0.diagnostics_text();

  auto run = [](CompileResult& compiled) {
    interp::Interp interp(*compiled.module);
    interp::SliceVal out;
    out.data = std::make_shared<std::vector<interp::Value>>(
        3, interp::Value(std::int64_t{0}));
    interp.call_by_name("run", {interp::Value(out)});
    return std::vector<std::int64_t>{(*out.data)[0].as_i64(),
                                     (*out.data)[1].as_i64(),
                                     (*out.data)[2].as_i64()};
  };

  const auto opt = run(o1);
  const auto ref = run(o0);
  EXPECT_EQ(opt, ref);
  EXPECT_EQ(opt[0], 4950);  // sum 0..99
  EXPECT_EQ(opt[1], 5050);  // sum 1..100
  EXPECT_EQ(opt[2], 198);   // lastprivate from i = 99
}

}  // namespace
}  // namespace zomp::core
