// C ABI tests — the surface generated code targets (runtime/abi.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/abi.h"
#include "runtime/icv.h"
#include "runtime/team.h"

namespace {

constexpr zomp_ident_t kLoc{"abi_test.mz", "test", 1};

struct ForkState {
  std::atomic<int> members{0};
  std::atomic<int> tid_sum{0};
};

void count_microtask(std::int32_t /*gtid*/, std::int32_t tid, void** args) {
  auto* state = static_cast<ForkState*>(args[0]);
  state->members.fetch_add(1);
  state->tid_sum.fetch_add(tid);
}

TEST(AbiForkTest, ForkRunsAllMembers) {
  ForkState state;
  void* args[1] = {&state};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &count_microtask, 1, args);
  EXPECT_EQ(state.members.load(), 4);
  EXPECT_EQ(state.tid_sum.load(), 0 + 1 + 2 + 3);
}

TEST(AbiForkTest, PushNumThreadsIsOneShot) {
  ForkState state;
  void* args[1] = {&state};
  zomp_push_num_threads(&kLoc, 3);
  zomp_fork_call(&kLoc, &count_microtask, 1, args);
  EXPECT_EQ(state.members.load(), 3);
  // Second fork without a push uses the default, not 3 again necessarily —
  // we only assert it forked at all.
  ForkState state2;
  void* args2[1] = {&state2};
  zomp_fork_call(&kLoc, &count_microtask, 1, args2);
  EXPECT_GE(state2.members.load(), 1);
}

TEST(AbiForkTest, ForkIfZeroSerialises) {
  ForkState state;
  void* args[1] = {&state};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call_if(&kLoc, &count_microtask, 1, args, 0);
  EXPECT_EQ(state.members.load(), 1);
}

struct WsState {
  std::vector<std::atomic<int>>* hits;
  std::int64_t lo, hi, chunk;
  std::int32_t sched;
};

void static_loop_microtask(std::int32_t gtid, std::int32_t /*tid*/, void** args) {
  auto* ws = static_cast<WsState*>(args[0]);
  std::int64_t mylo = 0, myhi = 0, stride = 0;
  std::int32_t last = 0;
  zomp_for_static_init(&kLoc, gtid, ws->chunk, ws->lo, ws->hi, 1, &mylo, &myhi,
                       &stride, &last);
  const std::int64_t span = myhi - mylo;
  for (std::int64_t b = mylo; b < ws->hi; b += stride) {
    const std::int64_t end = b + span < ws->hi ? b + span : ws->hi;
    for (std::int64_t i = b; i < end; ++i) {
      (*ws->hits)[static_cast<std::size_t>(i - ws->lo)].fetch_add(1);
    }
  }
  zomp_for_static_fini(&kLoc, gtid);
  zomp_barrier(&kLoc, gtid);
}

void dispatch_loop_microtask(std::int32_t gtid, std::int32_t /*tid*/, void** args) {
  auto* ws = static_cast<WsState*>(args[0]);
  zomp_dispatch_init(&kLoc, gtid, ws->sched, ws->chunk, ws->lo, ws->hi, 1);
  std::int64_t clo = 0, chi = 0;
  std::int32_t clast = 0;
  while (zomp_dispatch_next(&kLoc, gtid, &clo, &chi, &clast) != 0) {
    for (std::int64_t i = clo; i < chi; ++i) {
      (*ws->hits)[static_cast<std::size_t>(i - ws->lo)].fetch_add(1);
    }
  }
  zomp_barrier(&kLoc, gtid);
}

class AbiWorksharingTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int64_t>> {};

TEST_P(AbiWorksharingTest, DispatchCoversOnce) {
  const auto [sched, chunk] = GetParam();
  constexpr std::int64_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  WsState ws{&hits, 3, 3 + n, chunk, sched};
  void* args[1] = {&ws};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &dispatch_loop_microtask, 1, args);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, AbiWorksharingTest,
    ::testing::Values(std::make_tuple(0, std::int64_t{0}),   // static blocked
                      std::make_tuple(0, std::int64_t{4}),   // static chunked
                      std::make_tuple(1, std::int64_t{1}),   // dynamic
                      std::make_tuple(1, std::int64_t{16}),  // dynamic chunked
                      std::make_tuple(2, std::int64_t{1}),   // guided
                      std::make_tuple(3, std::int64_t{0}))); // auto

TEST(AbiWorksharingTest, StaticInitCoversOnce) {
  constexpr std::int64_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  WsState ws{&hits, 0, n, 0, 0};
  void* args[1] = {&ws};
  zomp_push_num_threads(&kLoc, 3);
  zomp_fork_call(&kLoc, &static_loop_microtask, 1, args);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(AbiWorksharingTest, StaticRangeMatchesChunklessStaticInit) {
  // zomp_static_range stays exported for bench/suite's zbench_traced:
  // each member's block and `last` must be zomp_for_static_init's with
  // chunk 0 and step 1. Ranges: empty, reversed, fewer trips than members,
  // uneven and even splits.
  struct Block {
    std::int64_t lo = -1, hi = -1;
    std::int32_t last = -1;
    bool operator==(const Block&) const = default;
  };
  struct State {
    std::int64_t lo, hi;
    Block init[4], range[4];
  };
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0}, {5, 5}, {7, 3}, {0, 1}, {10, 12}, {-4, -1}, {0, 10}, {3, 104},
      {0, 12}};
  for (std::int32_t t = 1; t <= 4; ++t) {
    for (const auto& [lo, hi] : ranges) {
      State state{lo, hi, {}, {}};
      void* args[1] = {&state};
      zomp_push_num_threads(&kLoc, t);
      zomp_fork_call(
          &kLoc,
          [](std::int32_t gtid, std::int32_t tid, void** a) {
            auto* s = static_cast<State*>(a[0]);
            Block& init = s->init[tid];
            std::int64_t stride = 0;
            zomp_for_static_init(&kLoc, gtid, 0, s->lo, s->hi, 1, &init.lo,
                                 &init.hi, &stride, &init.last);
            zomp_for_static_fini(&kLoc, gtid);
            Block& range = s->range[tid];
            zomp_static_range(&kLoc, gtid, s->lo, s->hi, &range.lo, &range.hi,
                              &range.last);
          },
          1, args);
      for (std::int32_t tid = 0; tid < 4; ++tid) {
        const bool member = tid < t;
        EXPECT_EQ(state.init[tid].last != -1, member);
        EXPECT_TRUE(state.range[tid] == state.init[tid])
            << "T=" << t << " [" << lo << ", " << hi << ") tid " << tid
            << ": range [" << state.range[tid].lo << ", "
            << state.range[tid].hi << ") last " << state.range[tid].last
            << ", static_init [" << state.init[tid].lo << ", "
            << state.init[tid].hi << ") last " << state.init[tid].last;
      }
    }
  }
}

struct SingleState {
  std::atomic<int> winners{0};
};

void single_microtask(std::int32_t gtid, std::int32_t /*tid*/, void** args) {
  auto* s = static_cast<SingleState*>(args[0]);
  for (int i = 0; i < 10; ++i) {
    if (zomp_single(&kLoc, gtid) != 0) {
      s->winners.fetch_add(1);
      zomp_end_single(&kLoc, gtid);
    }
    zomp_barrier(&kLoc, gtid);
  }
}

TEST(AbiSyncTest, SingleElectsOnePerInstance) {
  SingleState s;
  void* args[1] = {&s};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &single_microtask, 1, args);
  EXPECT_EQ(s.winners.load(), 10);
}

struct CriticalState {
  long counter = 0;
};

void critical_microtask(std::int32_t gtid, std::int32_t /*tid*/, void** args) {
  auto* s = static_cast<CriticalState*>(args[0]);
  for (int i = 0; i < 1000; ++i) {
    zomp_critical(&kLoc, gtid, "abi_test");
    ++s->counter;
    zomp_end_critical(&kLoc, gtid, "abi_test");
  }
}

TEST(AbiSyncTest, CriticalExcludes) {
  CriticalState s;
  void* args[1] = {&s};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &critical_microtask, 1, args);
  EXPECT_EQ(s.counter, 4000);
}

void master_microtask(std::int32_t gtid, std::int32_t tid, void** args) {
  auto* count = static_cast<std::atomic<int>*>(args[0]);
  if (zomp_master(&kLoc, gtid) != 0) {
    EXPECT_EQ(tid, 0);
    count->fetch_add(1);
  }
}

TEST(AbiSyncTest, MasterIsTidZero) {
  std::atomic<int> count{0};
  void* args[1] = {&count};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &master_microtask, 1, args);
  EXPECT_EQ(count.load(), 1);
}

TEST(AbiAtomicTest, IntegerOps) {
  std::int64_t v = 10;
  zomp_atomic_add_i64(&v, 5);
  EXPECT_EQ(v, 15);
  zomp_atomic_sub_i64(&v, 3);
  EXPECT_EQ(v, 12);
  zomp_atomic_mul_i64(&v, 4);
  EXPECT_EQ(v, 48);
  zomp_atomic_div_i64(&v, 6);
  EXPECT_EQ(v, 8);
  zomp_atomic_min_i64(&v, 3);
  EXPECT_EQ(v, 3);
  zomp_atomic_max_i64(&v, 7);
  EXPECT_EQ(v, 7);
  zomp_atomic_and_i64(&v, 6);
  EXPECT_EQ(v, 6);
  zomp_atomic_or_i64(&v, 9);
  EXPECT_EQ(v, 15);
  zomp_atomic_xor_i64(&v, 5);
  EXPECT_EQ(v, 10);
}

TEST(AbiAtomicTest, FloatOps) {
  double v = 8.0;
  zomp_atomic_add_f64(&v, 2.0);
  EXPECT_DOUBLE_EQ(v, 10.0);
  zomp_atomic_sub_f64(&v, 4.0);
  EXPECT_DOUBLE_EQ(v, 6.0);
  zomp_atomic_mul_f64(&v, 3.0);
  EXPECT_DOUBLE_EQ(v, 18.0);
  zomp_atomic_div_f64(&v, 2.0);
  EXPECT_DOUBLE_EQ(v, 9.0);
  zomp_atomic_min_f64(&v, 1.5);
  EXPECT_DOUBLE_EQ(v, 1.5);
  zomp_atomic_max_f64(&v, 2.5);
  EXPECT_DOUBLE_EQ(v, 2.5);
}

void atomic_contention_microtask(std::int32_t /*gtid*/, std::int32_t /*tid*/,
                                 void** args) {
  auto* v = static_cast<double*>(args[0]);
  for (int i = 0; i < 10000; ++i) zomp_atomic_add_f64(v, 1.0);
}

TEST(AbiAtomicTest, FloatAddUnderContention) {
  double v = 0.0;
  void* args[1] = {&v};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(&kLoc, &atomic_contention_microtask, 1, args);
  EXPECT_DOUBLE_EQ(v, 40000.0);
}

TEST(AbiQueryTest, SerialContextQueries) {
  EXPECT_EQ(zomp_get_thread_num(), 0);
  EXPECT_EQ(zomp_get_num_threads(), 1);
  EXPECT_EQ(zomp_in_parallel(), 0);
  EXPECT_GE(zomp_get_num_procs(), 1);
  EXPECT_GE(zomp_get_max_threads(), 1);
  EXPECT_GE(zomp_get_wtime(), 0.0);
  EXPECT_GT(zomp_get_wtick(), 0.0);
}

/// Every int() row of the routine table, read through the zomp_ column.
std::vector<std::int64_t> int_rows() {
  std::vector<std::int64_t> rows;
#define READ(q, impl) rows.push_back(zomp_##q());
#define SKIP(q, impl)
  ZOMP_ROUTINES(READ, SKIP, SKIP, SKIP, SKIP)
#undef READ
#undef SKIP
  return rows;
}

/// Checks every row of the routine table for agreement between its mz_omp_
/// and zomp_ columns in the calling context: int() and int(int) rows answer
/// alike, a setter leaves every int() row alike through either column,
/// double() readings interleave monotonically, and void() rows print alike.
void expect_columns_agree() {
#define AGREE_INT(q, impl) EXPECT_EQ(mz_omp_##q(), zomp_##q()) << #q;
#define AGREE_INT_INT(q, impl)                  \
  for (const std::int32_t a : {-1, 0, 1, 2, 3}) \
    EXPECT_EQ(mz_omp_##q(a), zomp_##q(a)) << #q << "(" << a << ")";
#define AGREE_VOID_INT(q, impl)          \
  {                                      \
    zomp_##q(5);                         \
    mz_omp_##q(3);                       \
    const auto via_mz = int_rows();      \
    zomp_##q(5);                         \
    zomp_##q(3);                         \
    EXPECT_EQ(via_mz, int_rows()) << #q; \
  }
#define AGREE_DOUBLE(q, impl)            \
  {                                      \
    const double before = zomp_##q();    \
    const double via_mz = mz_omp_##q();  \
    EXPECT_LE(before, via_mz) << #q;     \
    EXPECT_LE(via_mz, zomp_##q()) << #q; \
  }
#define AGREE_VOID(q, impl)                                              \
  {                                                                      \
    testing::internal::CaptureStderr();                                  \
    zomp_##q();                                                          \
    const std::string via_zomp = testing::internal::GetCapturedStderr(); \
    testing::internal::CaptureStderr();                                  \
    mz_omp_##q();                                                        \
    EXPECT_EQ(testing::internal::GetCapturedStderr(), via_zomp) << #q;   \
  }
  ZOMP_ROUTINES(AGREE_INT, AGREE_INT_INT, AGREE_VOID_INT, AGREE_DOUBLE,
                AGREE_VOID)
#undef AGREE_INT
#undef AGREE_INT_INT
#undef AGREE_VOID_INT
#undef AGREE_DOUBLE
#undef AGREE_VOID
}

void columns_agree_microtask(std::int32_t gtid, std::int32_t tid,
                             void** /*args*/) {
  // One member at a time: the void() rows capture the process's stderr.
  for (std::int32_t turn = 0; turn < zomp_get_num_threads(); ++turn) {
    if (turn == tid) expect_columns_agree();
    zomp_barrier(&kLoc, gtid);
  }
}

TEST(AbiQueryTest, MiniZigI64VariantsAgree) {
  const zomp::rt::Icv saved = zomp::rt::current_thread().icv;
  expect_columns_agree();
  zomp_push_num_threads(&kLoc, 3);
  zomp_fork_call(&kLoc, &columns_agree_microtask, 0, nullptr);
  zomp::rt::current_thread().icv = saved;
}

TEST(AbiQueryTest, MiniZigArgumentsSaturateToI32) {
  // An i64 past the i32 range clamps to the nearest bound: 2^32 is an
  // out-of-range level or place, not a wrapped-around 0.
  const zomp::rt::Icv saved = zomp::rt::current_thread().icv;
  EXPECT_EQ(mz_omp_get_team_size(4294967296), -1);
  EXPECT_EQ(mz_omp_get_team_size(-4294967296), -1);
  EXPECT_EQ(mz_omp_get_place_num_procs(4294967296), 0);
  mz_omp_set_num_threads(4294967299);
  EXPECT_EQ(mz_omp_get_max_threads(), 2147483647);
  zomp::rt::current_thread().icv = saved;
}

TEST(AbiQueryTest, MaxActiveLevelsRoundTrip) {
  const std::int32_t saved = zomp_get_max_active_levels();
  zomp_set_max_active_levels(4);
  EXPECT_EQ(zomp_get_max_active_levels(), 4);
  EXPECT_EQ(mz_omp_get_max_active_levels(), 4);
  // Values below 1 are rejected (max-active-levels-var is at least 1).
  zomp_set_max_active_levels(0);
  EXPECT_EQ(zomp_get_max_active_levels(), 4);
  zomp_set_max_active_levels(saved);
}

TEST(AbiQueryTest, MaxTaskPriorityReflectsIcv) {
  // Default: OMP_MAX_TASK_PRIORITY unset -> 0, per spec.
  EXPECT_EQ(zomp_get_max_task_priority(), 0);
  zomp::rt::GlobalIcv::instance().set_max_task_priority(7);
  EXPECT_EQ(zomp_get_max_task_priority(), 7);
  EXPECT_EQ(mz_omp_get_max_task_priority(), 7);
  zomp::rt::GlobalIcv::instance().set_max_task_priority(0);
  EXPECT_EQ(zomp_get_max_task_priority(), 0);
}

struct TeamSizeState {
  std::atomic<std::int32_t> outer_l1{-99};
  std::atomic<std::int32_t> inner_l1{-99};
  std::atomic<std::int32_t> inner_l2{-99};
  std::atomic<std::int32_t> inner_l0{-99};
};

void team_size_inner(std::int32_t /*gtid*/, std::int32_t tid, void** args) {
  auto* st = static_cast<TeamSizeState*>(args[0]);
  if (tid == 0) {
    st->inner_l0.store(zomp_get_team_size(0));
    st->inner_l1.store(zomp_get_team_size(1));
    st->inner_l2.store(zomp_get_team_size(2));
  }
}

void team_size_outer(std::int32_t /*gtid*/, std::int32_t tid, void** args) {
  auto* st = static_cast<TeamSizeState*>(args[0]);
  if (tid == 0) {
    st->outer_l1.store(zomp_get_team_size(1));
    zomp_push_num_threads(&kLoc, 2);
    zomp_fork_call(&kLoc, &team_size_inner, 1, args);
  }
}

TEST(AbiQueryTest, TeamSizeWalksAncestorChain) {
  // Serial context: level 0 is the initial implicit team of size 1; anything
  // else is out of range.
  EXPECT_EQ(zomp_get_team_size(0), 1);
  EXPECT_EQ(zomp_get_team_size(1), -1);
  EXPECT_EQ(zomp_get_team_size(-1), -1);

  const std::int32_t saved = zomp_get_max_active_levels();
  zomp_set_max_active_levels(2);
  TeamSizeState st;
  void* args[1] = {&st};
  zomp_push_num_threads(&kLoc, 3);
  zomp_fork_call(&kLoc, &team_size_outer, 1, args);
  zomp_set_max_active_levels(saved);

  EXPECT_EQ(st.outer_l1.load(), 3);   // innermost team, seen from level 1
  EXPECT_EQ(st.inner_l0.load(), 1);   // initial implicit team
  EXPECT_EQ(st.inner_l1.load(), 3);   // ancestor: the outer 3-wide team
  EXPECT_EQ(st.inner_l2.load(), 2);   // innermost: the nested 2-wide team
}

TEST(AbiReduceTest, TreeReduceCombinesAndElectsOneWinner) {
  // zomp_reduce must combine every member's partial, hand the result to
  // exactly one winner, and leave the losers' buffers untouched.
  struct State {
    double total = 0.0;
    std::atomic<int> winners{0};
  } state;
  void* args[1] = {&state};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(
      &kLoc,
      [](std::int32_t gtid, std::int32_t tid, void** a) {
        auto* s = static_cast<State*>(a[0]);
        double local = static_cast<double>(tid + 1);  // 1+2+3+4 = 10
        const auto add = [](void* lhs, const void* rhs) {
          *static_cast<double*>(lhs) += *static_cast<const double*>(rhs);
        };
        if (zomp_reduce(&kLoc, gtid, &local, sizeof(local), add)) {
          s->winners.fetch_add(1, std::memory_order_relaxed);
          s->total = local;
        }
        zomp_barrier(&kLoc, gtid);
      },
      1, args);
  EXPECT_EQ(state.winners.load(), 1);
  EXPECT_DOUBLE_EQ(state.total, 10.0);
}

TEST(AbiReduceTest, BackToBackReductionsDoNotCrossTalk) {
  // Consecutive reductions with no barrier between them exercise the slot
  // reuse gate (done_seq) of the reduction tree.
  struct State {
    std::int64_t sums[8] = {};
  } state;
  void* args[1] = {&state};
  zomp_push_num_threads(&kLoc, 4);
  zomp_fork_call(
      &kLoc,
      [](std::int32_t gtid, std::int32_t tid, void** a) {
        auto* s = static_cast<State*>(a[0]);
        const auto add = [](void* lhs, const void* rhs) {
          *static_cast<std::int64_t*>(lhs) +=
              *static_cast<const std::int64_t*>(rhs);
        };
        for (int round = 0; round < 8; ++round) {
          std::int64_t local = (tid + 1) * (round + 1);
          if (zomp_reduce(&kLoc, gtid, &local, sizeof(local), add)) {
            s->sums[round] = local;
          }
        }
        zomp_barrier(&kLoc, gtid);
      },
      1, args);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(state.sums[round], 10 * (round + 1)) << "round " << round;
  }
}

}  // namespace
