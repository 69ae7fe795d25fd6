// Cancellation subsystem tests (DESIGN.md S10; OpenMP 5.2 §11).
//
// Three layers under test:
//   1. Team primitives — cancel_activate / cancellation_requested /
//      cancel_taskgroup, barrier abandonment, dispatch drain, discard-on-take.
//   2. The generated-code ABI constants and query routines.
//   3. End to end through BOTH backends: cancel.mz is run natively
//      transpiled (mzgen_cancel_mz) and interpreted from the same source,
//      with OMP_CANCELLATION on (regions drain early) and off (every cancel
//      is a no-op and the serial result comes out) — the PR's acceptance
//      gate.
//
// The whole file is TSan-clean by design: the stress tests below run under
// the CI thread-sanitizer job with cancellation enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cancel_mz.h"
#include "core/pipeline.h"
#include "interp/interp.h"
#include "runtime/abi.h"
#include "runtime/api.h"
#include "runtime/hl.h"
#include "runtime/icv.h"
#include "runtime/team.h"

#ifndef ZOMP_SOURCE_DIR
#define ZOMP_SOURCE_DIR "."
#endif

namespace zomp::rt {
namespace {

/// Every test restores cancel-var: the ICV is process-wide and other suites
/// in this binary assume the default (disabled).
class CancelTest : public ::testing::Test {
 protected:
  void SetUp() override { GlobalIcv::instance().set_cancellation(true); }
  void TearDown() override { GlobalIcv::instance().set_cancellation(false); }
};

TEST(CancelDisabledTest, CancelIsNoOpWithoutIcv) {
  GlobalIcv::instance().set_cancellation(false);
  std::atomic<int> after{0};
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        // Disabled: activation reports "do not branch" and no flag is set.
        EXPECT_FALSE(ts.team->cancel_activate(ts, Team::kCancelParallel));
        EXPECT_FALSE(ts.team->cancellation_requested(ts, Team::kCancelParallel));
        EXPECT_FALSE(zomp::barrier());
        after.fetch_add(1);
      },
      zomp::ParallelOptions{4});
  EXPECT_EQ(after.load(), 4);
  EXPECT_FALSE(zomp::get_cancellation());
  EXPECT_EQ(zomp_get_cancellation(), 0);
}

TEST_F(CancelTest, IcvQueriesReflectCancellation) {
  EXPECT_TRUE(zomp::get_cancellation());
  EXPECT_EQ(zomp_get_cancellation(), 1);
  EXPECT_EQ(mz_omp_get_cancellation(), 1);
  // ABI construct codes are the Team bitmask values — generated code and the
  // interpreter pass them through numerically.
  EXPECT_EQ(ZOMP_CANCEL_PARALLEL, Team::kCancelParallel);
  EXPECT_EQ(ZOMP_CANCEL_LOOP, Team::kCancelLoop);
}

TEST_F(CancelTest, CancelParallelAbandonsBarriersAndTeamRecovers) {
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        before.fetch_add(1);
        if (ts.tid == 0) {
          // The canceller branches straight to the region end.
          if (ts.team->cancel_activate(ts, Team::kCancelParallel)) return;
        }
        // Everyone else abandons their next barrier — whether they arrive
        // before or after the cancel — and heads for the region end too.
        if (zomp::barrier()) return;
        after.fetch_add(1);
      },
      zomp::ParallelOptions{4});
  EXPECT_EQ(before.load(), 4);
  EXPECT_EQ(after.load(), 0);

  // reset_cancellation at region end: the next region is undisturbed.
  std::atomic<int> clean{0};
  zomp::parallel(
      [&] {
        EXPECT_FALSE(zomp::barrier());
        clean.fetch_add(1);
      },
      zomp::ParallelOptions{4});
  EXPECT_EQ(clean.load(), 4);
}

TEST_F(CancelTest, LoopBitMatchesConstructAndClearsAtBarrier) {
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        EXPECT_TRUE(ts.team->cancel_activate(ts, Team::kCancelLoop));
        EXPECT_TRUE(ts.team->cancellation_requested(ts, Team::kCancelLoop));
        // Construct kinds don't cross: a loop cancel is not a parallel cancel.
        EXPECT_FALSE(ts.team->cancellation_requested(ts, Team::kCancelParallel));
        // The cancelled loop's closing barrier completes normally (only
        // `cancel parallel` abandons barriers) and retires the loop bit.
        EXPECT_FALSE(zomp::barrier());
        EXPECT_FALSE(ts.team->cancellation_requested(ts, Team::kCancelLoop));
      },
      zomp::ParallelOptions{1});
}

TEST_F(CancelTest, CancelForDrainsDispatchAndNextLoopRuns) {
  constexpr i64 kIters = 100000;
  std::atomic<i64> executed{0};
  std::atomic<i64> second{0};
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        Team& team = *ts.team;
        team.dispatch_init(ts, Schedule{ScheduleKind::kDynamic, 1}, 0, kIters,
                           1);
        i64 lo = 0, hi = 0;
        bool cancelled = false;
        while (team.dispatch_next(ts, &lo, &hi, nullptr)) {
          for (i64 i = lo; i < hi; ++i) {
            if (team.cancellation_requested(ts, Team::kCancelLoop)) {
              cancelled = true;
              break;
            }
            if (executed.fetch_add(1, std::memory_order_relaxed) >= 64) {
              // Whichever member crosses the threshold cancels; activation
              // always branches while the ICV is on, even when another
              // member set the flag first.
              cancelled = team.cancel_activate(ts, Team::kCancelLoop);
              EXPECT_TRUE(cancelled);
              break;
            }
          }
          if (cancelled) break;
        }
        // Mid-chunk escape: detach from the construct so the dispatch ring
        // entry frees (exhausted threads already detached; this is a no-op
        // for them).
        team.dispatch_break(ts);
        EXPECT_FALSE(zomp::barrier());  // clears the loop bit

        // The next worksharing construct on the same team is unaffected.
        team.dispatch_init(ts, Schedule{ScheduleKind::kDynamic, 4}, 0, 1000, 1);
        while (team.dispatch_next(ts, &lo, &hi, nullptr)) {
          second.fetch_add(hi - lo, std::memory_order_relaxed);
        }
        EXPECT_FALSE(zomp::barrier());
      },
      zomp::ParallelOptions{4});
  EXPECT_GE(executed.load(), 1);
  EXPECT_LT(executed.load(), kIters);
  EXPECT_EQ(second.load(), 1000);
}

TEST_F(CancelTest, CancelTaskgroupDiscardsQueuedTasks) {
  constexpr int kTasks = 256;
  std::atomic<int> ran{0};
  zomp::parallel(
      [&] {
        zomp::single([&] {
          zomp::taskgroup([&] {
            for (int t = 0; t < kTasks; ++t) {
              zomp::task([&] {
                ran.fetch_add(1);
                ThreadState& ts = current_thread();
                ts.team->cancel_taskgroup(ts);
              });
            }
          });
        });
      },
      zomp::ParallelOptions{2});
  // The first completed task cancels the group; everything still queued is
  // discarded at take time (bodies skipped, completion accounting kept, so
  // taskgroup_end returned). At most the tasks already in flight ran.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), kTasks);
}

TEST_F(CancelTest, TaskgroupCancelObservedByCallingTask) {
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        EXPECT_FALSE(ts.team->taskgroup_cancelled(ts));
        // No taskgroup active: nothing to cancel.
        EXPECT_FALSE(ts.team->cancel_taskgroup(ts));
        zomp::taskgroup([&] {
          EXPECT_TRUE(ts.team->cancel_taskgroup(ts));
          EXPECT_TRUE(ts.team->taskgroup_cancelled(ts));
        });
        EXPECT_FALSE(ts.team->taskgroup_cancelled(ts));
      },
      zomp::ParallelOptions{1});
}

// -- Stress: every interleaving of cancel vs barrier arrival must terminate --
//
// Rotates the cancelling member and the amount of pre-cancel work so some
// members are parked in the barrier when the cancel lands, some arrive
// after, and some race it. Any lost wake-up or leaked barrier arrival hangs
// the test; any flag torn across regions fails the `clean` assertion. Run
// under TSan in CI with the fault-injection matrix.
TEST_F(CancelTest, CancelParallelStress) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> entered{0};
    zomp::parallel(
        [&] {
          ThreadState& ts = current_thread();
          entered.fetch_add(1);
          for (volatile int spin = 0; spin < (ts.tid * 37 + round) % 101;
               ++spin) {
          }
          if (ts.tid == round % 4) {
            if (ts.team->cancel_activate(ts, Team::kCancelParallel)) return;
          }
          for (int b = 0; b < 3; ++b) {
            if (zomp::barrier()) return;
          }
        },
        zomp::ParallelOptions{4});
    ASSERT_EQ(entered.load(), 4) << "round " << round;
  }
}

TEST_F(CancelTest, CancelForStress) {
  for (int round = 0; round < 100; ++round) {
    std::atomic<i64> done{0};
    zomp::parallel(
        [&] {
          ThreadState& ts = current_thread();
          Team& team = *ts.team;
          team.dispatch_init(ts, Schedule{ScheduleKind::kDynamic, 1}, 0, 4096,
                             1);
          i64 lo = 0, hi = 0;
          bool esc = false;
          while (!esc && team.dispatch_next(ts, &lo, &hi, nullptr)) {
            for (i64 i = lo; i < hi; ++i) {
              if (team.cancellation_requested(ts, Team::kCancelLoop)) {
                esc = true;
                break;
              }
              done.fetch_add(1, std::memory_order_relaxed);
              if (ts.tid == round % 4 && i >= round) {
                esc = team.cancel_activate(ts, Team::kCancelLoop);
                break;
              }
            }
          }
          team.dispatch_break(ts);
          (void)zomp::barrier();
        },
        zomp::ParallelOptions{4});
    ASSERT_GE(done.load(), 1) << "round " << round;
  }
}

// -- End to end: cancel.mz through both backends -----------------------------

std::string read_kernel(const char* name) {
  const std::string path =
      std::string(ZOMP_SOURCE_DIR) + "/src/npb/kernels/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

interp::SliceVal make_slice_i64(std::int64_t n) {
  interp::SliceVal s;
  s.data = std::make_shared<std::vector<interp::Value>>(
      static_cast<std::size_t>(n), interp::Value(std::int64_t{0}));
  return s;
}

class CancelE2eTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    GlobalIcv::instance().set_cancellation(GetParam());
  }
  void TearDown() override { GlobalIcv::instance().set_cancellation(false); }
};

TEST_P(CancelE2eTest, CancelForDrainsInBothBackends) {
  const bool enabled = GetParam();
  constexpr std::int64_t n = 10000, trip = 5;

  // Native (transpiled at build time through mzc).
  std::vector<std::int64_t> marks(static_cast<std::size_t>(n), 0);
  const std::int64_t native = mzgen_cancel_mz::cancel_for_run(
      n, trip, mz::Slice<std::int64_t>{marks.data(), n});

  // Interpreted from the same source.
  auto result = core::compile_source(read_kernel("cancel.mz"),
                                     {true, "cancel_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  interp::Interp vm(*result.module);
  interp::SliceVal imarks = make_slice_i64(n);
  const interp::Value iv = vm.call_by_name(
      "cancel_for_run",
      {interp::Value(n), interp::Value(trip), interp::Value(imarks)});

  if (enabled) {
    // The trip iteration marked its slot before cancelling; the drain keeps
    // the total far below n (exact count depends on in-flight chunks).
    EXPECT_GE(native, 1);
    EXPECT_LT(native, n);
    EXPECT_GE(iv.as_i64(), 1);
    EXPECT_LT(iv.as_i64(), n);
  } else {
    EXPECT_EQ(native, n);
    EXPECT_EQ(iv.as_i64(), n);
  }
}

TEST_P(CancelE2eTest, CancelParallelIsDeterministicInBothBackends) {
  const bool enabled = GetParam();
  // out[0]*10 + out[1]: both members increment out[0], a barrier pins that,
  // then the cancel decides whether out[1] is ever touched.
  const std::int64_t want = enabled ? 20 : 22;

  std::vector<std::int64_t> out(2, 0);
  EXPECT_EQ(mzgen_cancel_mz::cancel_parallel_run(
                mz::Slice<std::int64_t>{out.data(), 2}),
            want);

  auto result = core::compile_source(read_kernel("cancel.mz"),
                                     {true, "cancel_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  interp::Interp vm(*result.module);
  interp::SliceVal iout = make_slice_i64(2);
  EXPECT_EQ(
      vm.call_by_name("cancel_parallel_run", {interp::Value(iout)}).as_i64(),
      want);
}

TEST_P(CancelE2eTest, CancelParallelLeavesNextRegionIntact) {
  // A cancel in the first of two adjacent regions must not reach the second:
  // both members count themselves in each region, cancelled or not.
  std::vector<std::int64_t> out(2, 0);
  mzgen_cancel_mz::cancel_then_region_run(
      mz::Slice<std::int64_t>{out.data(), 2});
  EXPECT_EQ(out, (std::vector<std::int64_t>{2, 2}));

  core::CompileOptions options;
  options.module_name = "cancel_interp";
  auto result = core::compile_source(read_kernel("cancel.mz"), options);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  interp::Interp vm(*result.module);
  interp::SliceVal iout = make_slice_i64(2);
  vm.call_by_name("cancel_then_region_run", {interp::Value(iout)});
  EXPECT_EQ((*iout.data)[0].as_i64(), 2);
  EXPECT_EQ((*iout.data)[1].as_i64(), 2);
}

TEST_P(CancelE2eTest, CancelTaskgroupDiscardsInBothBackends) {
  const bool enabled = GetParam();
  constexpr std::int64_t n = 64;

  std::vector<std::int64_t> out(1, 0);
  const std::int64_t native = mzgen_cancel_mz::cancel_taskgroup_run(
      n, mz::Slice<std::int64_t>{out.data(), 1});

  auto result = core::compile_source(read_kernel("cancel.mz"),
                                     {true, "cancel_interp"});
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  interp::Interp vm(*result.module);
  interp::SliceVal iout = make_slice_i64(1);
  const interp::Value iv = vm.call_by_name(
      "cancel_taskgroup_run", {interp::Value(n), interp::Value(iout)});

  if (enabled) {
    EXPECT_GE(native, 1);
    EXPECT_LT(native, n);
    EXPECT_GE(iv.as_i64(), 1);
    EXPECT_LT(iv.as_i64(), n);
  } else {
    EXPECT_EQ(native, n);
    EXPECT_EQ(iv.as_i64(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(IcvOnOff, CancelE2eTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CancellationEnabled"
                                             : "CancellationDisabled";
                         });

}  // namespace
}  // namespace zomp::rt
