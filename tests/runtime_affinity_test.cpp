// Topology & affinity subsystem (runtime/topology.h, runtime/places.h;
// DESIGN.md S1.8): the OMP_PLACES grammar, the pure placement math behind
// proc_bind(primary|close|spread), the binding round-trip through real
// forked regions (sched_getaffinity observed from inside), the no-op
// degradation when the OS refuses a mask, and the per-level hot-team cache
// interplay (re-arms must not re-issue setaffinity).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/hl.h"
#include "runtime/places.h"
#include "runtime/team.h"
#include "runtime/topology.h"

namespace zomp {
namespace {

using rt::BindKind;
using rt::BindingPlan;
using rt::Place;
using rt::PlaceTable;
using rt::Topology;

/// Snapshot/restore of the process place table so tests can install
/// synthetic tables without leaking them into later tests.
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
    // Un-pin the main thread: bound tests narrowed its OS mask.
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

std::vector<rt::i32> place_procs(const Place& p) { return p.procs; }

// ---------------------------------------------------------------------------
// Topology builders
// ---------------------------------------------------------------------------

TEST(TopologyTest, FlatModelIsOneSocketOfSingleThreadCores) {
  const Topology topo = Topology::flat(4);
  ASSERT_EQ(topo.num_procs(), 4);
  EXPECT_EQ(topo.num_cores(), 4);
  EXPECT_EQ(topo.num_sockets(), 1);
  EXPECT_TRUE(topo.flat_fallback());
  for (rt::i32 i = 0; i < 4; ++i) {
    EXPECT_EQ(topo.procs()[static_cast<std::size_t>(i)].os_proc, i);
    EXPECT_EQ(topo.procs()[static_cast<std::size_t>(i)].smt, 0);
  }
}

TEST(TopologyTest, SyntheticSmtGroupsSiblings) {
  // 2 sockets x 2 cores x 2 SMT = 8 procs, 4 cores.
  const Topology topo = Topology::synthetic(2, 2, 2);
  ASSERT_EQ(topo.num_procs(), 8);
  EXPECT_EQ(topo.num_cores(), 4);
  EXPECT_EQ(topo.num_sockets(), 2);
  EXPECT_FALSE(topo.flat_fallback());
  // Siblings adjacent, smt ranks 0/1 alternating.
  for (std::size_t i = 0; i < 8; i += 2) {
    EXPECT_EQ(topo.procs()[i].core, topo.procs()[i + 1].core);
    EXPECT_EQ(topo.procs()[i].smt, 0);
    EXPECT_EQ(topo.procs()[i + 1].smt, 1);
  }
}

TEST(TopologyTest, ProcessTopologyMatchesAffinityMask) {
  const Topology& topo = Topology::instance();
  EXPECT_GE(topo.num_procs(), 1);
  const auto mask = rt::process_affinity_mask();
  if (!mask.empty()) {
    EXPECT_EQ(topo.num_procs(), static_cast<rt::i32>(mask.size()))
        << "usable procs must be the sched_getaffinity set";
  }
}

// ---------------------------------------------------------------------------
// OMP_PLACES grammar
// ---------------------------------------------------------------------------

TEST(PlacesParseTest, AbstractNames) {
  const Topology topo = Topology::synthetic(2, 2, 2);  // 8 threads, 4 cores
  auto threads = rt::parse_places("threads", topo);
  ASSERT_TRUE(threads.ok) << threads.error;
  EXPECT_EQ(threads.places.size(), 8u);

  auto cores = rt::parse_places("cores", topo);
  ASSERT_TRUE(cores.ok);
  ASSERT_EQ(cores.places.size(), 4u);
  EXPECT_EQ(cores.places[0].procs.size(), 2u) << "core place = SMT siblings";

  auto sockets = rt::parse_places("sockets", topo);
  ASSERT_TRUE(sockets.ok);
  ASSERT_EQ(sockets.places.size(), 2u);
  EXPECT_EQ(sockets.places[0].procs.size(), 4u);
}

TEST(PlacesParseTest, AbstractNameWithCount) {
  const Topology topo = Topology::flat(8);
  auto four = rt::parse_places("cores(4)", topo);
  ASSERT_TRUE(four.ok);
  EXPECT_EQ(four.places.size(), 4u);
  // Count beyond the machine clamps to what exists.
  auto many = rt::parse_places("threads(64)", topo);
  ASSERT_TRUE(many.ok);
  EXPECT_EQ(many.places.size(), 8u);
}

TEST(PlacesParseTest, ExplicitLists) {
  const Topology topo = Topology::flat(16);
  auto parsed = rt::parse_places("{0,1},{2:4},{0:8:2}", topo);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.places.size(), 3u);
  EXPECT_EQ(place_procs(parsed.places[0]), (std::vector<rt::i32>{0, 1}));
  EXPECT_EQ(place_procs(parsed.places[1]), (std::vector<rt::i32>{2, 3, 4, 5}));
  EXPECT_EQ(place_procs(parsed.places[2]),
            (std::vector<rt::i32>{0, 2, 4, 6, 8, 10, 12, 14}));
}

TEST(PlacesParseTest, WhitespaceAndDuplicatesTolerated) {
  const Topology topo = Topology::flat(8);
  auto parsed = rt::parse_places(" { 0 , 1 , 1 } , { 4 : 2 } ", topo);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.places.size(), 2u);
  EXPECT_EQ(place_procs(parsed.places[0]), (std::vector<rt::i32>{0, 1}));
  EXPECT_EQ(place_procs(parsed.places[1]), (std::vector<rt::i32>{4, 5}));
}

TEST(PlacesParseTest, RestrictedMaskTrimsAndDropsPlaces) {
  // The `taskset` path: procs outside the topology are trimmed; places left
  // empty disappear; a single surviving place is legal.
  const Topology topo = Topology::flat(2);  // only procs 0 and 1 usable
  auto parsed = rt::parse_places("{0:2},{2:2}", topo);
  ASSERT_TRUE(parsed.ok);
  ASSERT_EQ(parsed.places.size(), 1u) << "fully-trimmed place must drop";
  EXPECT_EQ(place_procs(parsed.places[0]), (std::vector<rt::i32>{0, 1}));
}

TEST(PlacesParseTest, Diagnostics) {
  const Topology topo = Topology::flat(8);
  EXPECT_FALSE(rt::parse_places("{0,1", topo).ok);
  EXPECT_NE(rt::parse_places("{0,1", topo).error.find("unbalanced"),
            std::string::npos);
  EXPECT_FALSE(rt::parse_places("{0:2:-1}", topo).ok);
  EXPECT_NE(rt::parse_places("{0:2:-1}", topo).error.find("negative stride"),
            std::string::npos);
  EXPECT_FALSE(rt::parse_places("{0:-2}", topo).ok);
  EXPECT_FALSE(rt::parse_places("{0:0}", topo).ok);
  EXPECT_FALSE(rt::parse_places("{-1}", topo).ok);
  EXPECT_FALSE(rt::parse_places("nodes", topo).ok);
  EXPECT_FALSE(rt::parse_places("cores(0)", topo).ok);
  EXPECT_FALSE(rt::parse_places("cores(2) extra", topo).ok);
  EXPECT_FALSE(rt::parse_places("{1}garbage", topo).ok);
  // Absurd lengths/strides/ids are rejected before any expansion happens
  // (no multi-gigabyte allocation from an environment variable), including
  // digit strings past the i64 range.
  EXPECT_NE(rt::parse_places("{0:2000000000}", topo).error.find("length"),
            std::string::npos);
  EXPECT_NE(
      rt::parse_places("{0:99999999999999999999}", topo).error.find("length"),
      std::string::npos);
  EXPECT_FALSE(rt::parse_places("{0:4:1000000}", topo).ok);
  EXPECT_FALSE(rt::parse_places("{1000000}", topo).ok);
}

TEST(ProcBindParseTest, ListsAndAliases) {
  using List = std::vector<BindKind>;
  EXPECT_EQ(rt::parse_proc_bind("spread"), (List{BindKind::kSpread}));
  EXPECT_EQ(rt::parse_proc_bind("spread,close"),
            (List{BindKind::kSpread, BindKind::kClose}));
  EXPECT_EQ(rt::parse_proc_bind(" MASTER "), (List{BindKind::kPrimary}));
  EXPECT_EQ(rt::parse_proc_bind("primary"), (List{BindKind::kPrimary}));
  EXPECT_EQ(rt::parse_proc_bind("false"), (List{BindKind::kFalse}));
  EXPECT_EQ(rt::parse_proc_bind("true"), (List{BindKind::kTrue}));
  EXPECT_FALSE(rt::parse_proc_bind("sideways").has_value());
  EXPECT_FALSE(rt::parse_proc_bind("close,,spread").has_value());
  EXPECT_FALSE(rt::parse_proc_bind("").has_value());
}

// ---------------------------------------------------------------------------
// Placement math (pure, over a synthetic table)
// ---------------------------------------------------------------------------

std::vector<Place> synthetic_places(int n) {
  std::vector<Place> places;
  for (int i = 0; i < n; ++i) {
    Place p;
    p.procs.push_back(i);
    places.push_back(p);
  }
  return places;
}

TEST(PlanBindingTest, InactiveWhenFalseOrUnset) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(4));
  EXPECT_FALSE(rt::plan_binding(BindKind::kFalse, 0, 4, -1, 4).active);
  EXPECT_FALSE(rt::plan_binding(BindKind::kUnset, 0, 4, -1, 4).active);
  EXPECT_EQ(rt::binding_sig(BindKind::kFalse, 0, 4, -1, 4), 0u);
  PlaceTable::instance().set_for_test({});
  EXPECT_FALSE(rt::plan_binding(BindKind::kSpread, 0, 0, -1, 4).active)
      << "no places -> no binding";
}

TEST(PlanBindingTest, PrimaryPutsEveryoneOnTheMastersPlace) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(4));
  const BindingPlan plan = rt::plan_binding(BindKind::kPrimary, 0, 4, 2, 4);
  ASSERT_TRUE(plan.active);
  for (const auto& mb : plan.members) {
    EXPECT_EQ(mb.place, 2);
    EXPECT_EQ(mb.part_lo, 0);
    EXPECT_EQ(mb.part_len, 4);
  }
}

TEST(PlanBindingTest, CloseIsConsecutiveFromTheMaster) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(8));
  for (const int T : {1, 2, 4, 8}) {
    const BindingPlan plan = rt::plan_binding(BindKind::kClose, 0, 8, 0, T);
    ASSERT_TRUE(plan.active);
    ASSERT_EQ(static_cast<int>(plan.members.size()), T);
    for (int i = 0; i < T; ++i) {
      EXPECT_EQ(plan.members[static_cast<std::size_t>(i)].place, i)
          << "close T=" << T << " member " << i;
      // close leaves the partition whole.
      EXPECT_EQ(plan.members[static_cast<std::size_t>(i)].part_len, 8);
    }
  }
  // Master mid-partition: assignment rotates from its place.
  const BindingPlan rotated = rt::plan_binding(BindKind::kClose, 0, 4, 3, 2);
  EXPECT_EQ(rotated.members[0].place, 3);
  EXPECT_EQ(rotated.members[1].place, 0);
}

TEST(PlanBindingTest, CloseOversubscribedGroupsMembers) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  const BindingPlan plan = rt::plan_binding(BindKind::kClose, 0, 2, 0, 4);
  ASSERT_TRUE(plan.active);
  EXPECT_EQ(plan.members[0].place, 0);
  EXPECT_EQ(plan.members[1].place, 0);
  EXPECT_EQ(plan.members[2].place, 1);
  EXPECT_EQ(plan.members[3].place, 1);
}

TEST(PlanBindingTest, SpreadSubdividesThePartitionDisjointly) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(8));
  for (const int T : {1, 2, 4, 8}) {
    const BindingPlan plan = rt::plan_binding(BindKind::kSpread, 0, 8, 0, T);
    ASSERT_TRUE(plan.active);
    std::set<int> firsts;
    int covered = 0;
    for (int i = 0; i < T; ++i) {
      const auto& mb = plan.members[static_cast<std::size_t>(i)];
      EXPECT_EQ(mb.place, mb.part_lo) << "member sits on its slice's head";
      firsts.insert(mb.part_lo);
      covered += mb.part_len;
      if (i > 0) {
        const auto& prev = plan.members[static_cast<std::size_t>(i - 1)];
        EXPECT_EQ(prev.part_lo + prev.part_len, mb.part_lo)
            << "subpartitions are contiguous and disjoint, T=" << T;
      }
    }
    EXPECT_EQ(static_cast<int>(firsts.size()), T) << "distinct places, T=" << T;
    EXPECT_EQ(covered, 8) << "subpartitions cover the parent, T=" << T;
  }
}

TEST(PlanBindingTest, SpreadRotatesToStartAtTheMastersSlice) {
  // OpenMP 5.2 S10.1.3: with T <= K the subpartition numbering begins with
  // the subpartition containing the parent thread's place, and the master
  // keeps its exact place. 8 places split into two slices of 4.
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(8));
  {
    // Master mid-way through the FIRST slice: member 0 keeps place 3 and
    // owns slice [0,4); member 1 starts the next slice at place 4.
    const BindingPlan plan = rt::plan_binding(BindKind::kSpread, 0, 8, 3, 2);
    ASSERT_TRUE(plan.active);
    EXPECT_EQ(plan.members[0].place, 3);
    EXPECT_EQ(plan.members[0].part_lo, 0);
    EXPECT_EQ(plan.members[0].part_len, 4);
    EXPECT_EQ(plan.members[1].place, 4);
    EXPECT_EQ(plan.members[1].part_lo, 4);
    EXPECT_EQ(plan.members[1].part_len, 4);
  }
  {
    // Master in the SECOND slice: the numbering wraps, so member 1 lands on
    // the first slice — before the fix it was pushed past the partition end.
    const BindingPlan plan = rt::plan_binding(BindKind::kSpread, 0, 8, 5, 2);
    ASSERT_TRUE(plan.active);
    EXPECT_EQ(plan.members[0].place, 5) << "master keeps its own place";
    EXPECT_EQ(plan.members[0].part_lo, 4);
    EXPECT_EQ(plan.members[0].part_len, 4);
    EXPECT_EQ(plan.members[1].place, 0);
    EXPECT_EQ(plan.members[1].part_lo, 0);
    EXPECT_EQ(plan.members[1].part_len, 4);
  }
}

TEST(PlanBindingTest, SpreadOversubscribedRotatesFromTheMaster) {
  // T > K: single-place subpartitions assigned round-robin starting at the
  // master's place (K=2, T=4, master on place 1).
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(2));
  const BindingPlan plan = rt::plan_binding(BindKind::kSpread, 0, 2, 1, 4);
  ASSERT_TRUE(plan.active);
  EXPECT_EQ(plan.members[0].place, 1);
  EXPECT_EQ(plan.members[1].place, 1);
  EXPECT_EQ(plan.members[2].place, 0);
  EXPECT_EQ(plan.members[3].place, 0);
  for (const auto& mb : plan.members) {
    EXPECT_EQ(mb.part_len, 1) << "oversubscribed spread narrows to one place";
    EXPECT_EQ(mb.part_lo, mb.place);
  }
}

TEST(PlanBindingTest, AcceptanceShapeExplicitPairsSpreadOfFour) {
  // The ISSUE acceptance scenario at the plan level: OMP_PLACES={0:2},{2:2}
  // parsed on a 4-proc machine, proc_bind(spread) at 4 threads -> members
  // 0,1 on place 0 (procs {0,1}) and members 2,3 on place 1 (procs {2,3}),
  // masks disjoint between the groups.
  PlaceTableGuard guard;
  auto parsed = rt::parse_places("{0:2},{2:2}", Topology::flat(4));
  ASSERT_TRUE(parsed.ok);
  ASSERT_EQ(parsed.places.size(), 2u);
  PlaceTable::instance().set_for_test(parsed.places);
  const BindingPlan plan = rt::plan_binding(BindKind::kSpread, 0, 2, -1, 4);
  ASSERT_TRUE(plan.active);
  EXPECT_EQ(plan.members[0].place, 0);
  EXPECT_EQ(plan.members[1].place, 0);
  EXPECT_EQ(plan.members[2].place, 1);
  EXPECT_EQ(plan.members[3].place, 1);
  // Each group's partition narrows to its own single place: nested teams
  // inherit disjoint slices.
  EXPECT_EQ(plan.members[0].part_len, 1);
  EXPECT_EQ(plan.members[2].part_lo, 1);
}

TEST(PlanBindingTest, SignatureDistinguishesShapeAndTableGeneration) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(synthetic_places(4));
  const rt::u64 a = rt::binding_sig(BindKind::kClose, 0, 4, -1, 4);
  const rt::u64 b = rt::binding_sig(BindKind::kSpread, 0, 4, -1, 4);
  const rt::u64 c = rt::binding_sig(BindKind::kClose, 0, 4, -1, 2);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  PlaceTable::instance().set_for_test(synthetic_places(4));  // new generation
  EXPECT_NE(rt::binding_sig(BindKind::kClose, 0, 4, -1, 4), a)
      << "table replacement must invalidate cached placements";
}

// ---------------------------------------------------------------------------
// Binding round-trip through real regions
// ---------------------------------------------------------------------------

/// Builds a table of one place per usable OS proc (so masks are exact).
std::vector<Place> per_proc_places() {
  std::vector<Place> places;
  for (const rt::ProcInfo& p : Topology::instance().procs()) {
    Place place;
    place.procs.push_back(p.os_proc);
    places.push_back(place);
  }
  return places;
}

/// `n` places over the usable processors, one each, reused round-robin:
/// on a host with fewer than `n` usable processors the places share them
/// (all of them share processor 0 under `taskset -c 0`). Every mask stays
/// applicable, so multi-place paths bind and run on any host.
std::vector<Place> round_robin_places(int n) {
  const auto& procs = Topology::instance().procs();
  std::vector<Place> places(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < places.size(); ++i) {
    places[i].procs.push_back(procs[i % procs.size()].os_proc);
  }
  return places;
}

#if defined(__linux__)
std::vector<rt::i32> current_os_mask() {
  std::vector<rt::i32> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int p = 0; p < CPU_SETSIZE; ++p) {
      if (CPU_ISSET(p, &set)) out.push_back(p);
    }
  }
  return out;
}
#endif

TEST(BindingRoundTripTest, CloseAndSpreadObservableInsideRegions) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(per_proc_places());
  const int K = PlaceTable::instance().num_places();
  ASSERT_GE(K, 1);

  for (const BindKind bind : {BindKind::kClose, BindKind::kSpread}) {
    for (const int T : {1, 2, 4, 8}) {
      std::mutex mu;
      std::vector<int> seen_places;
      std::atomic<int> mask_mismatches{0};
      ParallelOptions opts;
      opts.num_threads = T;
      opts.proc_bind = bind;
      parallel(
          [&] {
            rt::ThreadState& ts = rt::current_thread();
            const int place = place_num();
            {
              const std::lock_guard<std::mutex> lock(mu);
              seen_places.push_back(place);
            }
            EXPECT_GE(place, 0) << "bound region must assign a place";
            EXPECT_LT(place, K);
#if defined(__linux__)
            // Only check the OS mask when the runtime reports it actually
            // applied one (bound_place is the applied-mask cache).
            if (ts.bound_place == place) {
              const auto mask = current_os_mask();
              const auto want =
                  PlaceTable::instance().place(place).procs;
              if (mask != want) mask_mismatches.fetch_add(1);
            }
#endif
          },
          opts);
      EXPECT_EQ(mask_mismatches.load(), 0)
          << bind_kind_name(bind) << " T=" << T;
      ASSERT_EQ(static_cast<int>(seen_places.size()), T);
      // Distinct members get distinct places while the team fits the table.
      std::set<int> distinct(seen_places.begin(), seen_places.end());
      EXPECT_EQ(static_cast<int>(distinct.size()), std::min(T, K))
          << bind_kind_name(bind) << " T=" << T;
    }
  }
}

TEST(BindingRoundTripTest, SpreadGroupsAreDisjointWhenOversubscribed) {
  // The acceptance scenario end-to-end: two places, four threads, spread ->
  // two disjoint groups.
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(round_robin_places(2));

  std::mutex mu;
  std::vector<std::pair<int, int>> tid_place;
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.proc_bind = BindKind::kSpread;
  parallel(
      [&] {
        const std::lock_guard<std::mutex> lock(mu);
        tid_place.emplace_back(thread_num(), place_num());
      },
      opts);
  ASSERT_EQ(tid_place.size(), 4u);
  for (const auto& [tid, place] : tid_place) {
    EXPECT_EQ(place, tid < 2 ? 0 : 1) << "tid " << tid;
  }
}

TEST(BindingRoundTripTest, RefusedMaskDegradesToLogicalNoOp) {
  // Places naming processors outside the process mask: sched_setaffinity
  // refuses, the region must still run, and the logical place assignment
  // must still be observable.
  PlaceTableGuard guard;
  std::vector<Place> bogus(2);
  bogus[0].procs = {CPU_SETSIZE - 2};  // almost certainly not ours
  bogus[1].procs = {CPU_SETSIZE - 1};
  PlaceTable::instance().set_for_test(bogus);
  std::atomic<int> ran{0};
  std::atomic<int> placed{0};
  ParallelOptions opts;
  opts.num_threads = 2;
  opts.proc_bind = BindKind::kClose;
  parallel(
      [&] {
        ran.fetch_add(1);
        if (place_num() >= 0) placed.fetch_add(1);
        EXPECT_EQ(rt::current_thread().bound_place, -1)
            << "refused mask must not be recorded as applied";
      },
      opts);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(placed.load(), 2) << "logical placement survives refusal";
}

TEST(BindingRoundTripTest, ProcBindListDrivesUnclausedRegions) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(per_proc_places());
  rt::GlobalIcv::instance().set_proc_bind_list(
      {BindKind::kSpread, BindKind::kClose});
  EXPECT_EQ(get_proc_bind(), BindKind::kSpread)
      << "omp_get_proc_bind reports the next fork's policy";
  std::atomic<int> bound{0};
  std::atomic<int> nested_kind{-1};
  parallel(
      [&] {
        if (place_num() >= 0) bound.fetch_add(1);
        master([&] {
          nested_kind.store(static_cast<int>(get_proc_bind()));
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(bound.load(), 2) << "list entry 0 must bind without a clause";
  EXPECT_EQ(nested_kind.load(), static_cast<int>(BindKind::kClose))
      << "inside the region the list advances one nesting level";
}

TEST(BindingRoundTripTest, PartitionQueriesInsideSpread) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(round_robin_places(4));
  const int K = PlaceTable::instance().num_places();
  EXPECT_EQ(num_places(), K);
  EXPECT_EQ(partition_num_places(), K) << "initial partition = whole table";

  std::atomic<int> bad{0};
  ParallelOptions opts;
  opts.num_threads = K;
  opts.proc_bind = BindKind::kSpread;
  parallel(
      [&] {
        // Under spread each member's partition is its own slice.
        if (partition_num_places() != 1) bad.fetch_add(1);
        rt::i32 nums[1] = {-1};
        partition_place_nums(nums);
        if (nums[0] != place_num()) bad.fetch_add(1);
      },
      opts);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(partition_num_places(), K) << "partition restored after join";
}

TEST(BindingRoundTripTest, PlaceQueryApi) {
  PlaceTableGuard guard;
  std::vector<Place> table(2);
  table[0].procs = {0};
  table[1].procs = {0};
  PlaceTable::instance().set_for_test(table);
  EXPECT_EQ(num_places(), 2);
  EXPECT_EQ(place_num_procs(0), 1);
  EXPECT_EQ(place_num_procs(99), 0);
  rt::i32 ids[1] = {-1};
  place_proc_ids(0, ids);
  EXPECT_EQ(ids[0], 0);
}

TEST(BindingRoundTripTest, AffinityReportFormat) {
  PlaceTableGuard guard;
  std::vector<Place> table(1);
  table[0].procs = {0};
  PlaceTable::instance().set_for_test(table);
  ParallelOptions opts;
  opts.num_threads = 1;
  opts.proc_bind = BindKind::kClose;
  std::string report;
  parallel([&] { report = rt::affinity_report(rt::current_thread()); }, opts);
  EXPECT_NE(report.find("level 1"), std::string::npos) << report;
  EXPECT_NE(report.find("thread 0"), std::string::npos) << report;
  EXPECT_NE(report.find("place 0"), std::string::npos) << report;
  EXPECT_NE(report.find("{0}"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// affinity-format-var (OMP_AFFINITY_FORMAT, omp_*_affinity_format family)
// ---------------------------------------------------------------------------

/// Restores affinity-format-var on scope exit so format tests do not leak
/// into each other (the ICV is process-wide).
class AffinityFormatGuard {
 public:
  AffinityFormatGuard() : saved_(rt::GlobalIcv::instance().affinity_format()) {}
  ~AffinityFormatGuard() { rt::GlobalIcv::instance().set_affinity_format(saved_); }

 private:
  std::string saved_;
};

TEST(AffinityFormatTest, ShortFieldsExpand) {
  PlaceTableGuard guard;
  std::vector<Place> table(1);
  table[0].procs = {0};
  PlaceTable::instance().set_for_test(table);
  ParallelOptions opts;
  opts.num_threads = 2;
  opts.proc_bind = BindKind::kClose;
  std::vector<std::string> reports(2);
  parallel(
      [&] {
        reports[static_cast<std::size_t>(thread_num())] = rt::affinity_report(
            rt::current_thread(), "n=%n N=%N L=%L A={%A} pct=%%");
      },
      opts);
  EXPECT_EQ(reports[0], "n=0 N=2 L=1 A={0} pct=%");
  EXPECT_EQ(reports[1], "n=1 N=2 L=1 A={0} pct=%");
}

TEST(AffinityFormatTest, ProcessAndThreadIdsAreNumeric) {
  const std::string report = rt::affinity_report(
      rt::current_thread(), "%P/%i");
  const auto slash = report.find('/');
  ASSERT_NE(slash, std::string::npos) << report;
  EXPECT_NE(report.substr(0, slash).find_first_of("0123456789"),
            std::string::npos)
      << report;
  EXPECT_NE(report.substr(slash + 1).find_first_of("0123456789"),
            std::string::npos)
      << report;
}

TEST(AffinityFormatTest, LongNamesAndUnknownEscapes) {
  const std::string report = rt::affinity_report(
      rt::current_thread(), "%{thread_num}|%{no_such_field}|%Z|%{open");
  EXPECT_EQ(report, "0|%{no_such_field}|%Z|%{open");
}

TEST(AffinityFormatTest, SetGetCaptureRoundTrip) {
  AffinityFormatGuard guard;
  set_affinity_format("thread %n of %N");
  char buf[64] = {};
  const std::size_t len = get_affinity_format(buf, sizeof(buf));
  EXPECT_EQ(std::string(buf), "thread %n of %N");
  EXPECT_EQ(len, std::string("thread %n of %N").size());

  // Truncation contract: short buffers NUL-terminate, return full length.
  char tiny[8] = {};
  EXPECT_EQ(get_affinity_format(tiny, sizeof(tiny)), len);
  EXPECT_EQ(std::string(tiny), "thread ");

  char cap[64] = {};
  const std::size_t cap_len = capture_affinity(cap, sizeof(cap), nullptr);
  EXPECT_EQ(std::string(cap), "thread 0 of 1");
  EXPECT_EQ(cap_len, std::string("thread 0 of 1").size());

  // Explicit format overrides the ICV for one call.
  char once[64] = {};
  capture_affinity(once, sizeof(once), "L%L");
  EXPECT_EQ(std::string(once), "L0");
}

TEST(AffinityFormatTest, DefaultFormatMatchesLegacyReport) {
  AffinityFormatGuard guard;
  rt::GlobalIcv::instance().set_affinity_format(
      "zomp: level %L thread %n bound to place %p, OS procs {%A}");
  const std::string report = rt::affinity_report(rt::current_thread());
  EXPECT_NE(report.find("zomp: level 0 thread 0 bound to place"),
            std::string::npos)
      << report;
}

// ---------------------------------------------------------------------------
// Hot-team cache interplay
// ---------------------------------------------------------------------------

TEST(HotTeamAffinityTest, RearmSkipsTheAffinitySyscall) {
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(per_proc_places());
  ParallelOptions opts;
  opts.num_threads = 2;
  opts.proc_bind = BindKind::kClose;
  rt::Team* first = nullptr;
  parallel([&] { master([&] { first = rt::current_thread().team; }); }, opts);
  const rt::i64 calls_after_first = rt::affinity_syscall_count();
  for (int i = 0; i < 20; ++i) {
    rt::Team* again = nullptr;
    parallel([&] { master([&] { again = rt::current_thread().team; }); },
             opts);
    ASSERT_EQ(again, first) << "same shape+bind must recycle the team";
  }
  EXPECT_EQ(rt::affinity_syscall_count(), calls_after_first)
      << "unchanged re-arms must not touch sched_setaffinity";
}

TEST(HotTeamAffinityTest, BindChangeRebuildsAndRebinds) {
  // Four places, so the close and spread plans of a 2-member team differ.
  PlaceTableGuard guard;
  PlaceTable::instance().set_for_test(round_robin_places(4));
  rt::Team* close_team = nullptr;
  rt::Team* spread_team = nullptr;
  ParallelOptions close_opts;
  close_opts.num_threads = 2;
  close_opts.proc_bind = BindKind::kClose;
  ParallelOptions spread_opts;
  spread_opts.num_threads = 2;
  spread_opts.proc_bind = BindKind::kSpread;
  parallel([&] { master([&] { close_team = rt::current_thread().team; }); },
           close_opts);
  parallel([&] { master([&] { spread_team = rt::current_thread().team; }); },
           spread_opts);
  EXPECT_NE(close_team, spread_team)
      << "binding signature is part of the cache key";
  // Alternating bind kinds now hits both cached entries.
  for (int i = 0; i < 10; ++i) {
    rt::Team* t = nullptr;
    const ParallelOptions& opts = (i % 2 == 0) ? close_opts : spread_opts;
    parallel([&] { master([&] { t = rt::current_thread().team; }); }, opts);
    ASSERT_EQ(t, (i % 2 == 0) ? close_team : spread_team) << "round " << i;
  }
}

TEST(HotTeamAffinityTest, AlternatingShapesBothStayHot) {
  // The per-level associative cache (ROADMAP item): alternating between two
  // region shapes must reuse both team objects instead of rebuild-churning.
  rt::Team* team_a = nullptr;
  rt::Team* team_b = nullptr;
  parallel([&] { master([&] { team_a = rt::current_thread().team; }); },
           ParallelOptions{4, true});
  parallel([&] { master([&] { team_b = rt::current_thread().team; }); },
           ParallelOptions{2, true});
  const int spawned = rt::Pool::instance().spawned();
  for (int i = 0; i < 20; ++i) {
    rt::Team* t = nullptr;
    parallel([&] { master([&] { t = rt::current_thread().team; }); },
             ParallelOptions{i % 2 == 0 ? 4 : 2, true});
    ASSERT_EQ(t, i % 2 == 0 ? team_a : team_b) << "round " << i;
  }
  EXPECT_EQ(rt::Pool::instance().spawned(), spawned)
      << "alternating shapes must not rebuild through the pool";
}

TEST(HotTeamAffinityTest, NestedTeamsCachePerLevel) {
  set_max_active_levels(2);
  // Each outer member masters a nested team; with per-level slots the inner
  // team objects are recycled across rounds too.
  std::array<std::atomic<rt::Team*>, 2> inner_first = {};
  std::atomic<int> stable{0};
  for (int round = 0; round < 8; ++round) {
    parallel(
        [&] {
          const int tid = thread_num();
          parallel(
              [&] {
                master([&] {
                  rt::Team* t = rt::current_thread().team;
                  rt::Team* expected = inner_first[static_cast<std::size_t>(
                      tid)].load();
                  if (expected == nullptr) {
                    inner_first[static_cast<std::size_t>(tid)].store(t);
                  } else if (expected == t) {
                    stable.fetch_add(1);
                  }
                });
              },
              ParallelOptions{2, true});
        },
        ParallelOptions{2, true});
  }
  set_max_active_levels(1);
  EXPECT_EQ(stable.load(), 2 * 7)
      << "nested teams must be recycled from the per-level cache";
}

}  // namespace
}  // namespace zomp
