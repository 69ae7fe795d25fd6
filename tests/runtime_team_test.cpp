// Fork/join, team queries, ICVs, and the in-region constructs (single,
// master, critical, ordered, reductions) through the high-level API.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

namespace zomp {
namespace {

TEST(ForkJoinTest, TeamHasRequestedSize) {
  for (const int want : {1, 2, 3, 4, 8}) {
    std::atomic<int> members{0};
    std::set<int> tids;
    std::mutex m;
    parallel(
        [&] {
          members.fetch_add(1);
          const std::lock_guard<std::mutex> lock(m);
          tids.insert(thread_num());
        },
        ParallelOptions{want, true});
    EXPECT_EQ(members.load(), want);
    EXPECT_EQ(static_cast<int>(tids.size()), want);
    EXPECT_TRUE(tids.contains(0)) << "master participates as tid 0";
  }
}

TEST(ForkJoinTest, NumThreadsQueryInsideRegion) {
  parallel(
      [&] {
        EXPECT_EQ(num_threads(), 3);
        EXPECT_GE(thread_num(), 0);
        EXPECT_LT(thread_num(), 3);
        EXPECT_TRUE(in_parallel());
        EXPECT_EQ(level(), 1);
        EXPECT_EQ(active_level(), 1);
      },
      ParallelOptions{3, true});
  EXPECT_FALSE(in_parallel());
  EXPECT_EQ(num_threads(), 1);
  EXPECT_EQ(level(), 0);
}

TEST(ForkJoinTest, IfClauseFalseSerialises) {
  parallel(
      [&] {
        EXPECT_EQ(num_threads(), 1);
        EXPECT_EQ(thread_num(), 0);
      },
      ParallelOptions{4, /*if_clause=*/false});
}

TEST(ForkJoinTest, NestedRegionsSerialiseByDefault) {
  parallel(
      [&] {
        parallel([&] {
          EXPECT_EQ(num_threads(), 1);
          EXPECT_EQ(level(), 2);
          EXPECT_EQ(active_level(), 1);
        });
      },
      ParallelOptions{2, true});
}

TEST(ForkJoinTest, NestedRegionsActivateWhenAllowed) {
  set_max_active_levels(2);
  std::atomic<int> inner_total{0};
  parallel(
      [&] {
        parallel([&] { inner_total.fetch_add(1); }, ParallelOptions{2, true});
      },
      ParallelOptions{2, true});
  set_max_active_levels(1);
  // 2 outer members x 2 inner members (resources permitting, >= outer count).
  EXPECT_GE(inner_total.load(), 2);
  EXPECT_LE(inner_total.load(), 4);
}

TEST(ForkJoinTest, MasterValueVisibleAfterJoin) {
  int value = 0;
  parallel([&] { master([&] { value = 42; }); }, ParallelOptions{4, true});
  EXPECT_EQ(value, 42);
}

TEST(ForkJoinTest, RegionsAreReentrantBackToBack) {
  for (int i = 0; i < 100; ++i) {
    std::atomic<int> n{0};
    parallel([&] { n.fetch_add(1); }, ParallelOptions{4, true});
    ASSERT_EQ(n.load(), 4) << "region " << i;
  }
}

TEST(ForkJoinTest, UserThreadsCanForkIndependently) {
  std::atomic<int> total{0};
  std::thread t1([&] {
    parallel([&] { total.fetch_add(1); }, ParallelOptions{2, true});
  });
  std::thread t2([&] {
    parallel([&] { total.fetch_add(1); }, ParallelOptions{2, true});
  });
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 4);
}

// -- Hot-team fast path (pool.h, DESIGN.md S1.6) -----------------------------

TEST(HotTeamTest, SameSizeForksReuseTheTeamObject) {
  // Back-to-back same-size outermost regions must recycle the cached team
  // (same Team object, no new workers) instead of rebuilding it.
  rt::Team* first = nullptr;
  rt::Team* second = nullptr;
  parallel([&] { master([&] { first = rt::current_thread().team; }); },
           ParallelOptions{4, true});
  const int spawned_after_first = rt::Pool::instance().spawned();
  for (int i = 0; i < 50; ++i) {
    std::atomic<int> n{0};
    parallel(
        [&] {
          n.fetch_add(1);
          master([&] { second = rt::current_thread().team; });
        },
        ParallelOptions{4, true});
    ASSERT_EQ(n.load(), 4) << "region " << i;
    ASSERT_EQ(second, first) << "hot team must be reused, region " << i;
  }
  EXPECT_EQ(rt::Pool::instance().spawned(), spawned_after_first)
      << "same-size reuse must not spawn workers";
}

TEST(HotTeamTest, ReuseAcrossChangedNumThreadsRebuilds) {
  // A changed request dismisses the hot team; every region must still get
  // exactly the size it asked for, with working barrier and reduction.
  for (const int want : {4, 2, 4, 1, 3, 4, 8, 4}) {
    std::atomic<int> members{0};
    int reduced = 0;
    parallel(
        [&] {
          members.fetch_add(1);
          const int r = allreduce(1, std::plus<>{});
          master([&] { reduced = r; });
        },
        ParallelOptions{want, true});
    ASSERT_EQ(members.load(), want);
    ASSERT_EQ(reduced, want) << "reduction tree must match the rebuilt size";
  }
}

TEST(HotTeamTest, IcvChangeBetweenReusesPropagatesToWorkers) {
  // omp_set_schedule style ICV changes between same-size regions must reach
  // every member of the recycled team (workers refresh from the team copy).
  const rt::Schedule saved = get_schedule();
  set_schedule(rt::Schedule{rt::ScheduleKind::kDynamic, 7});
  std::atomic<int> saw_dynamic{0};
  parallel(
      [&] {
        if (get_schedule().kind == rt::ScheduleKind::kDynamic &&
            get_schedule().chunk == 7) {
          saw_dynamic.fetch_add(1);
        }
      },
      ParallelOptions{3, true});
  EXPECT_EQ(saw_dynamic.load(), 3);
  set_schedule(rt::Schedule{rt::ScheduleKind::kGuided, 3});
  std::atomic<int> saw_guided{0};
  parallel(
      [&] {
        if (get_schedule().kind == rt::ScheduleKind::kGuided &&
            get_schedule().chunk == 3) {
          saw_guided.fetch_add(1);
        }
      },
      ParallelOptions{3, true});
  EXPECT_EQ(saw_guided.load(), 3) << "recycled team must see the new ICV";
  set_schedule(saved);
}

TEST(HotTeamTest, NestedForksFromAHotTeam) {
  set_max_active_levels(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> inner_total{0};
    std::atomic<int> outer_total{0};
    parallel(
        [&] {
          outer_total.fetch_add(1);
          parallel([&] { inner_total.fetch_add(1); }, ParallelOptions{2, true});
        },
        ParallelOptions{2, true});
    ASSERT_EQ(outer_total.load(), 2) << "round " << round;
    // Inner teams go through the pool (never cached); resources permitting
    // each outer member gets >= 1 (itself) and <= 2 members.
    ASSERT_GE(inner_total.load(), 2) << "round " << round;
    ASSERT_LE(inner_total.load(), 4) << "round " << round;
  }
  set_max_active_levels(1);
}

TEST(HotTeamTest, NowaitConstructsStraddleATeamRebuild) {
  // Several nowait loops + reductions in a hot region, then the same in a
  // smaller rebuilt team: sequence counters, dispatch slots and reduction
  // tokens must all stay consistent across the rebuild boundary.
  for (const int want : {4, 2, 4}) {
    const std::int64_t n = 257;
    std::atomic<std::int64_t> sum{0};
    parallel(
        [&] {
          for (int r = 0; r < 3; ++r) {
            std::int64_t local = 0;
            for_each(
                0, n, [&](std::int64_t i) { local += i; },
                ForOptions{{rt::ScheduleKind::kDynamic, 3}, /*nowait=*/true});
            sum.fetch_add(allreduce(local, std::plus<>{}) == n * (n - 1) / 2
                              ? 0
                              : 1);
          }
        },
        ParallelOptions{want, true});
    ASSERT_EQ(sum.load(), 0) << "every member must see the exact total";
  }
}

TEST(HotTeamTest, ShortAcquireShrinksTeamConsistently) {
  // Requesting far beyond OMP_THREAD_LIMIT must deliver a smaller team whose
  // barrier, reduction tree and dispatch sizing all agree on the actual
  // size — no dangling member slot (the num_threads query, a counted
  // barrier-synchronised region, and an allreduce must all match).
  std::atomic<int> members{0};
  int query = 0;
  int reduced = 0;
  parallel(
      [&] {
        members.fetch_add(1);
        barrier();
        const int r = allreduce(1, std::plus<>{});
        master([&] {
          query = num_threads();
          reduced = r;
        });
      },
      ParallelOptions{100000, true});
  EXPECT_GT(members.load(), 0);
  EXPECT_EQ(query, members.load())
      << "num_threads must report the shrunk size";
  EXPECT_EQ(reduced, members.load())
      << "reduction tree must be sized to the shrunk team";
  // And the next normal-size region is unaffected by the oversized one.
  std::atomic<int> after{0};
  parallel([&] { after.fetch_add(1); }, ParallelOptions{2, true});
  EXPECT_EQ(after.load(), 2);
}

TEST(IcvTest, SetNumThreadsAffectsNextRegion) {
  set_num_threads(3);
  int seen = 0;
  parallel([&] { single([&] { seen = num_threads(); }); });
  EXPECT_EQ(seen, 3);
  set_num_threads(2);
}

TEST(IcvTest, DynamicFlagRoundTrips) {
  set_dynamic(true);
  EXPECT_TRUE(get_dynamic());
  set_dynamic(false);
  EXPECT_FALSE(get_dynamic());
}

TEST(IcvTest, ScheduleRoundTrips) {
  set_schedule({rt::ScheduleKind::kGuided, 9});
  const rt::Schedule s = get_schedule();
  EXPECT_EQ(s.kind, rt::ScheduleKind::kGuided);
  EXPECT_EQ(s.chunk, 9);
  set_schedule({rt::ScheduleKind::kStatic, 0});
}

TEST(IcvTest, WtimeIsMonotonic) {
  const double a = wtime();
  const double b = wtime();
  EXPECT_GE(b, a);
  EXPECT_GT(wtick(), 0.0);
  EXPECT_LT(wtick(), 1.0);
}

TEST(SingleTest, ExactlyOneMemberPerConstructInstance) {
  constexpr int kRounds = 25;
  std::atomic<int> executed{0};
  parallel(
      [&] {
        for (int i = 0; i < kRounds; ++i) {
          single([&] { executed.fetch_add(1); });
        }
      },
      ParallelOptions{4, true});
  EXPECT_EQ(executed.load(), kRounds);
}

TEST(SingleTest, NowaitSingleStillRunsOnce) {
  std::atomic<int> executed{0};
  parallel(
      [&] {
        single([&] { executed.fetch_add(1); }, /*barrier_after=*/false);
        barrier();
      },
      ParallelOptions{4, true});
  EXPECT_EQ(executed.load(), 1);
}

TEST(MasterTest, OnlyTidZeroRuns) {
  std::atomic<int> runs{0};
  std::atomic<int> runner_tid{-1};
  parallel(
      [&] {
        master([&] {
          runs.fetch_add(1);
          runner_tid.store(thread_num());
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(runner_tid.load(), 0);
}

TEST(CriticalTest, MutualExclusionUnderContention) {
  // Non-atomic counter updated under critical must not lose updates.
  long counter = 0;
  constexpr int kPerThread = 5000;
  parallel(
      [&] {
        for (int i = 0; i < kPerThread; ++i) {
          critical([&] { ++counter; });
        }
      },
      ParallelOptions{4, true});
  EXPECT_EQ(counter, 4L * kPerThread);
}

TEST(CriticalTest, DifferentNamesDoNotExclude) {
  // Two named criticals must be independent locks; same name shares one.
  rt::Lock* a1 = rt::CriticalRegistry::instance().get("alpha");
  rt::Lock* a2 = rt::CriticalRegistry::instance().get("alpha");
  rt::Lock* b = rt::CriticalRegistry::instance().get("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(OrderedTest, IterationsEnterInSequence) {
  constexpr rt::i64 n = 200;
  std::vector<rt::i64> order;
  order.reserve(n);
  parallel(
      [&] {
        rt::ThreadState& ts = rt::current_thread();
        rt::Team& team = *ts.team;
        // ordered loops go through the dispatch path, as the engine lowers them
        team.dispatch_init(ts, {rt::ScheduleKind::kDynamic, 7}, 0, n, 1);
        rt::i64 lo = 0, hi = 0;
        bool last = false;
        while (team.dispatch_next(ts, &lo, &hi, &last)) {
          for (rt::i64 i = lo; i < hi; ++i) {
            team.ordered_enter(ts, i);
            order.push_back(i);  // protected by the ordered region itself
            team.ordered_exit(ts, i);
          }
        }
        (void)team.barrier_wait(ts.tid);
      },
      ParallelOptions{4, true});
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (rt::i64 i = 0; i < n; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ReduceTest, InRegionReductionMatchesSerial) {
  constexpr rt::i64 n = 10000;
  double expected = 0.0;
  for (rt::i64 i = 0; i < n; ++i) expected += static_cast<double>(i) * 0.5;
  double got = 0.0;
  parallel(
      [&] {
        const double r = reduce_each<double>(
            0, n, 0.0, std::plus<>{},
            [](rt::i64 i) { return static_cast<double>(i) * 0.5; });
        single([&] { got = r; });
      },
      ParallelOptions{4, true});
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ReduceTest, BackToBackReductionsUseAlternatingCells) {
  // Regression guard for the double-buffered reduction scratch: consecutive
  // reductions must not corrupt each other.
  double a = 0.0, b = 0.0, c = 0.0;
  parallel(
      [&] {
        const double r1 = reduce_each<rt::i64>(0, 100, rt::i64{0}, std::plus<>{},
                                               [](rt::i64) { return rt::i64{1}; });
        const double r2 = reduce_each<rt::i64>(0, 200, rt::i64{0}, std::plus<>{},
                                               [](rt::i64) { return rt::i64{1}; });
        const double r3 = reduce_each<rt::i64>(0, 300, rt::i64{0}, std::plus<>{},
                                               [](rt::i64) { return rt::i64{1}; });
        single([&] {
          a = r1;
          b = r2;
          c = r3;
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(a, 100);
  EXPECT_EQ(b, 200);
  EXPECT_EQ(c, 300);
}

TEST(ReduceTest, MinMaxCombines) {
  const double mn = parallel_reduce<double>(
      0, 1000, 1e300, [](double x, double y) { return std::min(x, y); },
      [](rt::i64 i) { return static_cast<double>((i * 37 + 11) % 1000); });
  EXPECT_EQ(mn, 0.0);
  const double mx = parallel_reduce<double>(
      0, 1000, -1e300, [](double x, double y) { return std::max(x, y); },
      [](rt::i64 i) { return static_cast<double>((i * 37 + 11) % 1000); });
  EXPECT_EQ(mx, 999.0);
}

TEST(ReduceTest, WidePackIgnoresArrivalOrder) {
  // A pack of 8 f64 is wider than a slot's inline bytes. Member 0 arrives
  // first; the others arrive in member order in one run and in reverse in
  // the other. Member 0's 1e16 absorbs a small partial folded into it, and
  // member n-1's -1e16 then cancels it, so a fold in arrival order reads 0
  // in one run and the small partials' sum in the other. The tree's fixed
  // order makes both runs agree bit for bit.
  struct Pack {
    double v[8];
  };
  static_assert(sizeof(Pack) > rt::ReductionTree::kSlotBytes);
  static constexpr zomp_ident_t kLoc = {__FILE__, "reduction", __LINE__};
  const auto run = [](int threads, bool reverse) {
    Pack result{};
    parallel(
        [&] {
          const int tid = thread_num();
          if (tid != 0) {
            const int place = reverse ? threads - tid : tid;
            std::this_thread::sleep_for(std::chrono::milliseconds(20 * place));
          }
          const double mine_v =
              tid == 0 ? 1e16 : (tid == threads - 1 ? -1e16 : 1.0);
          Pack mine{};
          for (double& v : mine.v) v = mine_v;
          const auto add = [](void* lhs, const void* rhs) {
            auto* x = static_cast<Pack*>(lhs);
            const auto* y = static_cast<const Pack*>(rhs);
            for (int k = 0; k < 8; ++k) x->v[k] += y->v[k];
          };
          if (zomp_reduce(&kLoc, tid, &mine, sizeof(mine), add)) {
            result = mine;
          }
        },
        ParallelOptions{threads, true});
    return result;
  };
  for (const int threads : {3, 4}) {
    const Pack in_order = run(threads, /*reverse=*/false);
    const Pack reversed = run(threads, /*reverse=*/true);
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(in_order.v[k]),
                std::bit_cast<std::uint64_t>(reversed.v[k]))
          << threads << " threads, v[" << k << "] reads " << in_order.v[k]
          << " vs " << reversed.v[k];
    }
  }
}

TEST(BarrierApiTest, BarrierSeparatesPhases) {
  constexpr int kThreads = 4;
  std::vector<int> phase1(kThreads, 0);
  std::atomic<int> mismatches{0};
  parallel(
      [&] {
        phase1[static_cast<std::size_t>(thread_num())] = 1;
        barrier();
        for (int i = 0; i < kThreads; ++i) {
          if (phase1[static_cast<std::size_t>(i)] != 1) mismatches.fetch_add(1);
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(mismatches.load(), 0);
}

class BarrierRoundTest : public ::testing::TestWithParam<int> {};

TEST_P(BarrierRoundTest, NoMemberEntersRoundKPlusOneBeforeAllFinishRoundK) {
  // Each member counts its arrival before the team barrier; after it, every
  // member must see members * (round + 1) arrivals. The second barrier keeps
  // the read apart from the next round's arrivals. Member counts past the
  // host's cores exercise the spin-then-yield and park paths.
  constexpr int kRounds = 50;
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  std::atomic<int> members{0};
  parallel(
      [&] {
        const int n = num_threads();
        if (thread_num() == 0) members.store(n);
        for (int round = 0; round < kRounds; ++round) {
          counter.fetch_add(1, std::memory_order_acq_rel);
          barrier();
          if (counter.load(std::memory_order_acquire) != n * (round + 1)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          barrier();
        }
      },
      ParallelOptions{GetParam(), true});
  EXPECT_EQ(members.load(), GetParam());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter.load(), members.load() * kRounds);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BarrierRoundTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13));

}  // namespace
}  // namespace zomp
