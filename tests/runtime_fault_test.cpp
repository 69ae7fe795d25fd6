// Fault-injection & graceful-degradation tests (DESIGN.md S10).
//
// The three injection sites each have a degradation contract:
//   spawn    — a failed worker spawn shrinks the team; every team-sized
//              structure (barrier, reduction tree, loop split) follows
//              the short size, so the region still completes correctly.
//   alloc    — a failed task allocation runs the task undeferred inline,
//              preserving task semantics at the cost of parallelism.
//   affinity — a failed sched_setaffinity leaves the thread logically bound
//              (place_num assigned) but OS-unpinned.
// The NPB sweep at the bottom proves the global property: under ANY
// injection probability the kernels still produce bit-exact results —
// degraded means slower, never wrong.
//
// zomp_fatal (the ZOMP_CHECK reporter) is covered by death tests: the abort
// must carry the message and the thread/team/place context line.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "mandel_mz.h"
#include "npb/mandel.h"
#include "runtime/api.h"
#include "runtime/common.h"
#include "runtime/fault.h"
#include "runtime/hl.h"
#include "taskgraph_mz.h"

namespace zomp::rt {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault_reset(); }

  static void configure(FaultSite site, double p) {
    double probs[kNumFaultSites] = {0, 0, 0};
    probs[static_cast<i32>(site)] = p;
    fault_configure(probs);
  }
};

// -- Spec parsing ------------------------------------------------------------

struct SpecCase {
  const char* text;
  bool ok;
  double spawn, alloc, affinity;
};

class FaultSpecTest : public ::testing::TestWithParam<SpecCase> {};

TEST_P(FaultSpecTest, Parses) {
  const SpecCase& c = GetParam();
  double probs[kNumFaultSites] = {-1, -1, -1};
  ASSERT_EQ(parse_fault_spec(c.text, probs), c.ok) << c.text;
  if (c.ok) {
    EXPECT_DOUBLE_EQ(probs[0], c.spawn) << c.text;
    EXPECT_DOUBLE_EQ(probs[1], c.alloc) << c.text;
    EXPECT_DOUBLE_EQ(probs[2], c.affinity) << c.text;
  } else {
    // Malformed specs must leave the output untouched (caller keeps its
    // defaults — the unified malformed-env policy).
    EXPECT_DOUBLE_EQ(probs[0], -1) << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, FaultSpecTest,
    ::testing::Values(
        SpecCase{"spawn:1", true, 1, 0, 0},
        SpecCase{"alloc:0.5", true, 0, 0.5, 0},
        SpecCase{"affinity:0.25,spawn:0.125", true, 0.125, 0, 0.25},
        SpecCase{"spawn:0,alloc:0,affinity:0", true, 0, 0, 0},
        SpecCase{"spawn:1,alloc:1,affinity:1", true, 1, 1, 1},
        SpecCase{"", false, 0, 0, 0},
        SpecCase{"spawn", false, 0, 0, 0},
        SpecCase{"spawn:", false, 0, 0, 0},
        SpecCase{"spawn:2", false, 0, 0, 0},
        SpecCase{"spawn:-0.5", false, 0, 0, 0},
        SpecCase{"spawn:0.5x", false, 0, 0, 0},
        SpecCase{"teleport:0.5", false, 0, 0, 0},
        SpecCase{"spawn=0.5", false, 0, 0, 0}));

TEST_F(FaultTest, ScheduleIsDeterministic) {
  configure(FaultSite::kAlloc, 1.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(fault_should_fail(FaultSite::kAlloc)) << i;
    EXPECT_FALSE(fault_should_fail(FaultSite::kSpawn)) << i;
  }
  EXPECT_EQ(fault_injected_count(FaultSite::kAlloc), 8);

  // p=0.5 -> period 2 -> calls 1, 3, 5, ... fail (0-based).
  configure(FaultSite::kAlloc, 0.5);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fault_should_fail(FaultSite::kAlloc), i % 2 == 1) << i;
  }

  fault_reset();
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(fault_should_fail(FaultSite::kAlloc)) << i;
  }
  EXPECT_EQ(fault_injected_count(FaultSite::kAlloc), 0);
}

// -- Degradation: spawn ------------------------------------------------------

TEST_F(FaultTest, SpawnFaultDeliversShrunkenButConsistentTeam) {
  configure(FaultSite::kSpawn, 1.0);
  std::atomic<int> members{0};
  std::atomic<int> team_size{0};
  std::atomic<int> at_barrier{0};
  zomp::parallel(
      [&] {
        ThreadState& ts = current_thread();
        members.fetch_add(1);
        team_size.store(ts.team->size());
        at_barrier.fetch_add(1);
        // The shrunken team's barrier is sized to the delivered membership:
        // if any sizing structure still assumed 64 members this would hang.
        (void)zomp::barrier();
        EXPECT_EQ(at_barrier.load(), team_size.load());
      },
      zomp::ParallelOptions{64});
  EXPECT_GT(fault_injected_count(FaultSite::kSpawn), 0);
  EXPECT_LT(team_size.load(), 64);
  EXPECT_EQ(members.load(), team_size.load());

  // Worksharing + reduction across the short team stays exact.
  constexpr i64 n = 4096;
  const i64 want = n * (n - 1) / 2;
  const i64 got = zomp::parallel_reduce<i64>(
      0, n, i64{0}, std::plus<>{}, [](i64 i) { return i; }, zomp::ForOptions{},
      zomp::ParallelOptions{64});
  EXPECT_EQ(got, want);
}

// -- Degradation: alloc ------------------------------------------------------

TEST_F(FaultTest, AllocFaultRunsTasksInlineWithFullSemantics) {
  configure(FaultSite::kAlloc, 1.0);
  constexpr int kTasks = 50;
  std::atomic<int> ran{0};
  zomp::parallel(
      [&] {
        zomp::single([&] {
          for (int t = 0; t < kTasks; ++t) {
            zomp::task([&] { ran.fetch_add(1); });
          }
          zomp::taskwait();
        });
      },
      zomp::ParallelOptions{2});
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GT(fault_injected_count(FaultSite::kAlloc), 0);

  // taskloop under total allocation failure still covers every index once.
  constexpr i64 n = 200;
  std::vector<std::atomic<int>> hits(n);
  zomp::parallel(
      [&] {
        zomp::single([&] {
          zomp::taskloop(0, n, [&](i64 i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          });
        });
      },
      zomp::ParallelOptions{2});
  for (i64 i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

// -- Degradation: affinity ---------------------------------------------------

TEST_F(FaultTest, AffinityFaultDegradesToLogicalBinding) {
  configure(FaultSite::kAffinity, 1.0);
  // Binding requests succeed logically even when every OS pin fails; the
  // region must complete with correct results and no crash.
  std::atomic<int> members{0};
  zomp::ParallelOptions opts{4};
  opts.proc_bind = BindKind::kClose;
  zomp::parallel([&] { members.fetch_add(1); }, opts);
  EXPECT_GE(members.load(), 1);
}

// -- NPB sweep: site x probability, results stay bit-exact -------------------

struct SweepCase {
  FaultSite site;
  double p;
};

class FaultSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void TearDown() override { fault_reset(); }
};

TEST_P(FaultSweepTest, MandelAndTaskgraphStayExact) {
  const SweepCase& c = GetParam();
  double probs[kNumFaultSites] = {0, 0, 0};
  probs[static_cast<i32>(c.site)] = c.p;

  constexpr std::int64_t w = 32, h = 32, iters = 100;
  const npb::MandelResult oracle = npb::mandel_serial(npb::MandelParams{w, h, iters});

  zomp::set_num_threads(4);
  fault_configure(probs);
  // mandel: parallel for (spawn/affinity faults bite at region entry).
  std::vector<std::int64_t> res(2, 0);
  mzgen_mandel_mz::mandel_run(w, h, iters,
                              mz::Slice<std::int64_t>{res.data(), 2});
  EXPECT_EQ(res[0], oracle.inside) << "site " << static_cast<int>(c.site)
                                   << " p " << c.p;
  EXPECT_EQ(static_cast<std::uint64_t>(res[1]), oracle.iter_checksum);

  // taskgraph taskloop: tasking constructs (alloc faults bite per task).
  fault_configure(probs);
  constexpr std::int64_t n = 53, g = 3, nt = 7;
  std::int64_t want = 0;
  for (std::int64_t i = 0; i < n; ++i) want += (i * i - 3 * i + 7) * 2 + 1;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  const std::int64_t got = mzgen_taskgraph_mz::taskloop_run(
      n, g, nt, mz::Slice<std::int64_t>{out.data(), n});
  EXPECT_EQ(got, want) << "site " << static_cast<int>(c.site) << " p " << c.p;
}

INSTANTIATE_TEST_SUITE_P(
    SiteByProbability, FaultSweepTest,
    ::testing::Values(SweepCase{FaultSite::kSpawn, 0.0},
                      SweepCase{FaultSite::kSpawn, 0.5},
                      SweepCase{FaultSite::kSpawn, 1.0},
                      SweepCase{FaultSite::kAlloc, 0.0},
                      SweepCase{FaultSite::kAlloc, 0.5},
                      SweepCase{FaultSite::kAlloc, 1.0},
                      SweepCase{FaultSite::kAffinity, 0.0},
                      SweepCase{FaultSite::kAffinity, 0.5},
                      SweepCase{FaultSite::kAffinity, 1.0}));

// -- zomp_fatal death tests --------------------------------------------------

class FaultDeathTest : public FaultTest {
 protected:
  void SetUp() override {
    // Pool workers exist by now; fork-style death tests would run in a
    // threaded parent. threadsafe re-executes the binary instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(FaultDeathTest, CheckFailureAbortsWithMessage) {
  EXPECT_DEATH(ZOMP_CHECK(1 == 2, "invariant broken in test"),
               "zomp: fatal: invariant broken in test");
}

TEST_F(FaultDeathTest, FatalReportsThreadContext) {
  // The reporter prints a context line through the OMP_AFFINITY_FORMAT
  // expander: level/thread/place identify which member died.
  EXPECT_DEATH(fatal("boom", "fault_test.cpp", 42),
               "zomp: fatal: context: level [0-9]+ thread [0-9]+/[0-9]+");
}

TEST_F(FaultDeathTest, CheckCarriesFileAndLine) {
  EXPECT_DEATH(ZOMP_CHECK(false, "positioned failure"),
               "runtime_fault_test\\.cpp");
}

}  // namespace
}  // namespace zomp::rt
