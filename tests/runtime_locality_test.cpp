// Locality-aware scheduling (DESIGN.md S1.9): the hierarchical steal-victim
// order derived from a binding plan + the scheduling topology, the per-place
// dispatch shard map, the sharded dynamic/guided cursor protocol (disjoint
// slabs, exactly-once under concurrent slab steals), and the place-aware
// taskloop spray. Synthetic topologies and place tables throughout, so the
// shapes are deterministic on any CI machine — including `taskset -c 0`.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/runtime.h"

namespace zomp {
namespace {

using rt::BindingPlan;
using rt::MemberBinding;
using rt::Place;
using rt::PlaceTable;
using rt::ShardMap;
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

/// Removes the synthetic scheduling-topology override on scope exit.
struct SchedulingTopologyGuard {
  ~SchedulingTopologyGuard() { rt::clear_scheduling_topology_for_test(); }
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

/// An active plan putting member i on places[i] (partition fields are not
/// consulted by the locality products).
BindingPlan make_plan(const std::vector<rt::i32>& places) {
  BindingPlan plan;
  plan.active = true;
  plan.sig = 1;
  for (const rt::i32 p : places) {
    MemberBinding mb;
    mb.place = p;
    mb.part_lo = 0;
    mb.part_len = static_cast<rt::i32>(places.size());
    plan.members.push_back(mb);
  }
  return plan;
}

/// A quiescent Team over fake member states: nothing ever runs on it, so
/// set_binding / shard_map / victim_order can be inspected directly.
struct FakeTeam {
  std::vector<rt::ThreadState> states;
  std::unique_ptr<rt::Team> team;

  explicit FakeTeam(int n) : states(static_cast<std::size_t>(n)) {
    std::vector<rt::ThreadState*> ptrs;
    ptrs.reserve(states.size());
    for (auto& s : states) ptrs.push_back(&s);
    team = std::make_unique<rt::Team>(std::move(ptrs),
                                      rt::GlobalIcv::instance().initial(),
                                      /*level=*/0, /*active_level=*/0);
  }
};

// ---------------------------------------------------------------------------
// Victim-order shape (build once per binding; team.cpp build_victim_order)
// ---------------------------------------------------------------------------

TEST(VictimOrderTest, FollowsLocalityTiersOnSyntheticMachine) {
  // 2 sockets x 2 cores x 2 SMT = 8 procs; one single-proc place per proc;
  // one member per place. Expected tiers for member t against victim v:
  // same core (SMT sibling) when v/2 == t/2, same socket when v/4 == t/4,
  // anywhere otherwise — there are no same-place siblings.
  PlaceTableGuard pguard;
  SchedulingTopologyGuard tguard;
  rt::set_scheduling_topology_for_test(Topology::synthetic(2, 2, 2));
  PlaceTable::instance().set_for_test(synthetic_places(8));
  FakeTeam ft(8);
  ft.team->set_binding(make_plan({0, 1, 2, 3, 4, 5, 6, 7}));
  const std::vector<rt::i32>& order = ft.team->tasks().victim_order();
  ASSERT_EQ(order.size(), 8u * 7u) << "flattened n x (n-1) table";
  auto tier = [](int t, int v) {
    if (v / 2 == t / 2) return 1;
    if (v / 4 == t / 4) return 2;
    return 3;
  };
  for (int t = 0; t < 8; ++t) {
    const rt::i32* row = order.data() + static_cast<std::size_t>(t) * 7;
    std::set<rt::i32> seen;
    int prev = 0;
    for (int k = 0; k < 7; ++k) {
      ASSERT_GE(row[k], 0);
      ASSERT_LT(row[k], 8);
      EXPECT_NE(row[k], t) << "a member is never its own victim";
      seen.insert(row[k]);
      const int cur = tier(t, row[k]);
      EXPECT_GE(cur, prev) << "victims sorted near-to-far, member " << t
                           << " position " << k;
      prev = cur;
    }
    EXPECT_EQ(seen.size(), 7u) << "row is a permutation, member " << t;
    EXPECT_EQ(row[0], t ^ 1) << "nearest victim is the SMT sibling";
  }
}

TEST(VictimOrderTest, SamePlaceSiblingsComeFirstAndTiersStagger) {
  // Two members per place across two sockets: the tier-0 sibling leads every
  // row, and the far tier is rotated per member (anti-convoy stagger).
  PlaceTableGuard pguard;
  SchedulingTopologyGuard tguard;
  rt::set_scheduling_topology_for_test(Topology::synthetic(2, 1, 1));
  PlaceTable::instance().set_for_test(synthetic_places(2));
  FakeTeam ft(4);
  ft.team->set_binding(make_plan({0, 0, 1, 1}));
  const std::vector<rt::i32>& order = ft.team->tasks().victim_order();
  ASSERT_EQ(order.size(), 4u * 3u);
  const std::vector<rt::i32> want = {
      1, 2, 3,   // member 0: sibling 1, far tier {2,3} unrotated
      0, 3, 2,   // member 1: sibling 0, far tier rotated by 1
      3, 0, 1,   // member 2: sibling 3, far tier {0,1} unrotated
      2, 1, 0};  // member 3: sibling 2, far tier rotated by 1
  EXPECT_EQ(order, want);
}

TEST(VictimOrderTest, EmptyForSinglePlaceOrInactiveBindings) {
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  FakeTeam ft(4);
  ft.team->set_binding(make_plan({0, 0, 0, 0}));
  EXPECT_TRUE(ft.team->tasks().victim_order().empty())
      << "single place -> staggered flat ring, no table";
  EXPECT_EQ(ft.team->shard_map().nshards, 1);
  ft.team->set_binding(BindingPlan{});
  EXPECT_TRUE(ft.team->tasks().victim_order().empty())
      << "inactive binding -> no table";
  EXPECT_EQ(ft.team->shard_map().nshards, 1);
}

// ---------------------------------------------------------------------------
// Shard map (per-place dispatch grouping; team.cpp rebuild_locality)
// ---------------------------------------------------------------------------

TEST(ShardMapTest, GroupsMembersByPlaceInPlaceOrder) {
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(6));
  FakeTeam ft(4);
  ft.team->set_binding(make_plan({2, 5, 2, 5}));
  const ShardMap& map = ft.team->shard_map();
  ASSERT_EQ(map.nshards, 2);
  EXPECT_EQ(map.member_shard, (std::vector<rt::i32>{0, 1, 0, 1}));
  EXPECT_EQ(map.weight, (std::vector<rt::i32>{2, 2}));
  ASSERT_EQ(map.shard_members.size(), 2u);
  EXPECT_EQ(map.shard_members[0], (std::vector<rt::i32>{0, 2}));
  EXPECT_EQ(map.shard_members[1], (std::vector<rt::i32>{1, 3}));
}

TEST(ShardMapTest, PlacesBeyondTheCapMergeIntoTheLastShard) {
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(10));
  FakeTeam ft(10);
  ft.team->set_binding(make_plan({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const ShardMap& map = ft.team->shard_map();
  ASSERT_EQ(map.nshards, rt::kMaxPlaceShards);
  EXPECT_EQ(map.member_shard[9], rt::kMaxPlaceShards - 1);
  EXPECT_EQ(map.weight[static_cast<std::size_t>(rt::kMaxPlaceShards - 1)], 3)
      << "members past the cap merge, never drop";
  rt::i32 total = 0;
  for (const rt::i32 w : map.weight) total += w;
  EXPECT_EQ(total, 10);
}

// ---------------------------------------------------------------------------
// Sharded dispatch cursor (worksharing.{h,cpp}; no Team involved)
// ---------------------------------------------------------------------------

TEST(ShardedDispatchTest, SlabsPartitionTheTripSpaceProportionally) {
  rt::DispatchSlot slot;
  slot.trips = 1000003;  // odd on purpose: boundaries must still partition
  ShardMap map;
  map.nshards = 2;
  map.member_shard = {0, 0, 0, 1};
  map.weight = {3, 1};
  map.shard_members = {{0, 1, 2}, {3}};
  rt::dispatch_init_shards(slot, map, /*sharded=*/true);
  ASSERT_EQ(slot.nshards, 2);
  EXPECT_EQ(slot.shards[0].lo, 0);
  EXPECT_EQ(slot.shards[0].hi, slot.shards[1].lo) << "slabs are contiguous";
  EXPECT_EQ(slot.shards[1].hi, slot.trips) << "slabs cover the trip space";
  // Proportional to member weight 3:1, up to rounding.
  const rt::i64 want0 = slot.trips * 3 / 4;
  EXPECT_NEAR(static_cast<double>(slot.shards[0].hi),
              static_cast<double>(want0), 4.0);
  EXPECT_EQ(slot.shards[0].next.load(), slot.shards[0].lo);
  EXPECT_EQ(slot.shards[1].next.load(), slot.shards[1].lo);

  // sharded=false (static kinds, unbound teams) collapses to one slab.
  rt::dispatch_init_shards(slot, map, /*sharded=*/false);
  ASSERT_EQ(slot.nshards, 1);
  EXPECT_EQ(slot.shards[0].lo, 0);
  EXPECT_EQ(slot.shards[0].hi, slot.trips);
}

/// Drives dispatch_next_chunk from `nthreads` raw std::threads against a
/// hand-built slot and asserts every trip is claimed exactly once and
/// exactly one chunk reports `last`.
void run_slot_coverage(rt::ScheduleKind kind, rt::i64 n, rt::i64 chunk,
                       const std::vector<rt::i32>& member_shard) {
  const auto nthreads = static_cast<rt::i32>(member_shard.size());
  rt::DispatchSlot slot;
  slot.kind = kind;
  slot.lo = 0;
  slot.hi = n;
  slot.step = 1;
  slot.chunk = chunk;
  slot.trips = n;
  slot.nthreads = nthreads;
  ShardMap map;
  map.nshards = 2;
  map.member_shard = member_shard;
  map.weight = {1, 1};  // equal slabs regardless of who sits where
  map.shard_members = {{}, {}};
  rt::dispatch_init_shards(slot, map, /*sharded=*/true);
  ASSERT_EQ(slot.nshards, 2);

  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  std::atomic<int> lasts{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (rt::i32 t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      rt::MemberDispatch md;
      md.shard = member_shard[static_cast<std::size_t>(t)];
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

TEST(ShardedDispatchTest, EveryTripExactlyOnceAcrossTwoShards) {
  for (const rt::i64 chunk : {rt::i64{1}, rt::i64{7}}) {
    run_slot_coverage(rt::ScheduleKind::kDynamic, 10007, chunk, {0, 0, 1, 1});
    run_slot_coverage(rt::ScheduleKind::kGuided, 10007, chunk, {0, 0, 1, 1});
  }
}

TEST(ShardedDispatchTest, RemoteSlabIsFullyStolenWhenItsMembersNeverShow) {
  // Every claimer sits on shard 0: shard 1's slab is reachable only through
  // steal_slab, and must still be served exactly once.
  run_slot_coverage(rt::ScheduleKind::kDynamic, 4099, 3, {0, 0});
  run_slot_coverage(rt::ScheduleKind::kGuided, 4099, 1, {0, 0});
  // And a lone claimer draining both slabs serially.
  run_slot_coverage(rt::ScheduleKind::kDynamic, 513, 5, {0});
}

// ---------------------------------------------------------------------------
// End-to-end: bound regions route through the sharded cursors
// ---------------------------------------------------------------------------

TEST(LocalityDispatchTest, BoundSpreadCoverageSweep) {
  // Exactly-once under a real two-place spread binding, for every schedule
  // kind x chunk x team size x trip count. On machines where place {1} is
  // not applicable the binding degrades to logical-only placement, which
  // still drives the shard map — the invariant must hold either way.
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

TEST(LocalityTaskloopTest, SprayCoversEveryIterationAcrossPlaces) {
  // A 4-member spread team over two places: taskloop chunks are sprayed
  // round-robin across the place shards via the remote mailboxes, every
  // iteration still runs exactly once, and the pool telemetry shows the
  // remote chunks really travelled through mailboxes.
  PlaceTableGuard pguard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  constexpr rt::i64 kN = 256;
  constexpr rt::i64 kChunks = 16;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  rt::Team* team = nullptr;
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.proc_bind = rt::BindKind::kSpread;
  const rt::u64 pulls_before = rt::metrics_value(rt::Metric::kMailboxPulls);
  parallel(
      [&] {
        if (rt::current_thread().tid == 0) team = rt::current_thread().team;
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
  // With two shards, 3 of every 4 chunks target another member's mailbox
  // (the team survives in the hot cache, so its shape is still readable).
  ASSERT_NE(team, nullptr);
  if (team->size() == 4 && team->shard_map().nshards == 2) {
    EXPECT_GE(rt::metrics_value(rt::Metric::kMailboxPulls) - pulls_before,
              static_cast<rt::u64>(kChunks * 3 / 4))
        << "sprayed chunks must travel through the mailboxes";
  }
}

}  // namespace
}  // namespace zomp
