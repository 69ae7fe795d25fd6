// Work distribution on bound teams: the dynamic/guided dispatch cursor
// (exactly-once from raw threads at the DispatchSlot level), a coverage
// sweep of every schedule kind on a two-place spread team, and taskloop
// coverage on the same placement. Synthetic place tables throughout, so the
// shapes are deterministic on any CI machine — including `taskset -c 0`.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/runtime.h"

namespace zomp {
namespace {

using rt::Place;
using rt::PlaceTable;
using rt::Topology;

/// Snapshot/restore of the process place table (same guard the affinity
/// tests use) so synthetic tables never leak into later tests.
class PlaceTableGuard {
 public:
  PlaceTableGuard() {
    for (rt::i32 i = 0; i < PlaceTable::instance().num_places(); ++i) {
      saved_.push_back(PlaceTable::instance().place(i));
    }
  }
  ~PlaceTableGuard() {
    PlaceTable::instance().set_for_test(saved_);
    rt::GlobalIcv::instance().set_proc_bind_list({});
#if defined(__linux__)
    // Un-pin the main thread: bound regions narrowed its OS mask.
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const rt::ProcInfo& p : Topology::instance().procs()) {
      if (p.os_proc >= 0 && p.os_proc < CPU_SETSIZE) CPU_SET(p.os_proc, &set);
    }
    sched_setaffinity(0, sizeof(set), &set);
#endif
  }

 private:
  std::vector<Place> saved_;
};

std::vector<Place> synthetic_places(int n) {
  std::vector<Place> places;
  for (int i = 0; i < n; ++i) {
    Place p;
    p.procs.push_back(i);
    places.push_back(p);
  }
  return places;
}

// ---------------------------------------------------------------------------
// Dispatch cursor (worksharing.{h,cpp}; no Team involved)
// ---------------------------------------------------------------------------

/// Drives dispatch_next_chunk from `nthreads` raw std::threads against a
/// hand-built slot and asserts every trip is claimed exactly once and
/// exactly one chunk reports `last`.
void run_slot_coverage(rt::ScheduleKind kind, rt::i64 n, rt::i64 chunk,
                       rt::i32 nthreads) {
  rt::DispatchSlot slot;
  slot.kind = kind;
  slot.lo = 0;
  slot.hi = n;
  slot.step = 1;
  slot.chunk = chunk;
  slot.trips = n;
  slot.nthreads = nthreads;

  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  std::atomic<int> lasts{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (rt::i32 t = 0; t < nthreads; ++t) {
    threads.emplace_back([&] {
      rt::MemberDispatch md;
      rt::i64 lo = 0, hi = 0;
      bool last = false;
      rt::Counters counters;
      while (rt::dispatch_next_chunk(slot, md, counters, &lo, &hi, &last)) {
        for (rt::i64 i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        }
        if (last) lasts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (rt::i64 i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
        << "trip " << i << " kind=" << static_cast<int>(kind)
        << " chunk=" << chunk;
  }
  EXPECT_EQ(lasts.load(), 1) << "exactly one lastprivate owner";
}

TEST(DispatchCursorTest, EveryTripExactlyOnceFromRawThreads) {
  for (const rt::i64 chunk : {rt::i64{1}, rt::i64{7}}) {
    run_slot_coverage(rt::ScheduleKind::kDynamic, 10007, chunk, 4);
    run_slot_coverage(rt::ScheduleKind::kGuided, 10007, chunk, 4);
  }
  // A lone claimer drains the whole cursor serially.
  run_slot_coverage(rt::ScheduleKind::kDynamic, 513, 5, 1);
}

// ---------------------------------------------------------------------------
// End-to-end: bound spread teams
// ---------------------------------------------------------------------------

TEST(LocalityDispatchTest, BoundSpreadCoverageSweep) {
  // Exactly-once under a real two-place spread binding, for every schedule
  // kind x chunk x team size x trip count. On machines where place {1} is
  // not applicable the binding degrades to logical-only placement; the
  // invariant must hold either way.
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  for (const rt::ScheduleKind kind :
       {rt::ScheduleKind::kStatic, rt::ScheduleKind::kDynamic,
        rt::ScheduleKind::kGuided}) {
    for (const rt::i64 chunk : {rt::i64{0}, rt::i64{3}}) {
      if (kind == rt::ScheduleKind::kDynamic && chunk == 0) continue;
      for (const int threads : {1, 2, 4, 8}) {
        for (const rt::i64 n : {rt::i64{0}, rt::i64{1}, rt::i64{63},
                                rt::i64{1024}}) {
          std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
          for (auto& h : hits) h.store(0, std::memory_order_relaxed);
          ParallelOptions opts;
          opts.num_threads = threads;
          opts.proc_bind = rt::BindKind::kSpread;
          parallel(
              [&] {
                for_each(
                    0, n,
                    [&](rt::i64 i) {
                      hits[static_cast<std::size_t>(i)].fetch_add(
                          1, std::memory_order_relaxed);
                    },
                    ForOptions{{kind, chunk}, false});
              },
              opts);
          for (rt::i64 i = 0; i < n; ++i) {
            ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                << "iteration " << i << " kind=" << static_cast<int>(kind)
                << " chunk=" << chunk << " threads=" << threads
                << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(LocalityTaskloopTest, EveryIterationOnceOnASpreadTeam) {
  // A 4-member spread team over two places: every taskloop iteration runs
  // exactly once, whichever member's deque its chunk lands in.
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  constexpr rt::i64 kN = 256;
  constexpr rt::i64 kChunks = 16;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.proc_bind = rt::BindKind::kSpread;
  parallel(
      [&] {
        single([&] {
          taskloop(
              rt::i64{0}, kN,
              [&](rt::i64 i) {
                hits[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              TaskloopOptions{0, kChunks});
        });
      },
      opts);
  for (rt::i64 i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
  }
}

}  // namespace
}  // namespace zomp
