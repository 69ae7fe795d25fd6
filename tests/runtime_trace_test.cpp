// S12 observability tests: the per-thread trace rings + Chrome-JSON
// serialization (hook placement included, for both backends), the
// per-thread counters and metrics report, and the MiniZig host fns that
// reach them.
//
// Global-state hygiene: every ring fixture resets the tracer state and
// counter tests read deltas, so suites compose in one binary regardless of
// order.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "interp/interp.h"
#include "npb/cg.h"
#include "runtime/api.h"
#include "runtime/hl.h"
#include "runtime/metrics.h"
#include "runtime/team.h"
#include "runtime/trace.h"

namespace zomp {
namespace {

using rt::TraceEv;

// ---------------------------------------------------------------------------
// Chrome-JSON micro-parser. The serializer's record shape is fixed
// ({"name":"..","ph":"X",...,"pid":N,"tid":N,...}), so a field scan is
// enough to validate the schema without a JSON library.
// ---------------------------------------------------------------------------

struct JsonEv {
  std::string name;
  char ph = '?';
  double ts = -1.0;
  int pid = -1;
  int tid = -1;
};

std::vector<JsonEv> parse_trace_events(const std::string& json) {
  std::vector<JsonEv> out;
  size_t pos = 0;
  const std::string name_key = "{\"name\":\"";
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    JsonEv ev;
    size_t p = pos + name_key.size();
    const size_t name_end = json.find('"', p);
    ev.name = json.substr(p, name_end - p);
    const size_t ph_pos = json.find("\"ph\":\"", name_end);
    ev.ph = json[ph_pos + 6];
    const size_t obj_end = json.find("}}", name_end);
    const std::string obj = json.substr(pos, obj_end + 2 - pos);
    if (const size_t ts_pos = obj.find("\"ts\":"); ts_pos != std::string::npos) {
      ev.ts = std::stod(obj.substr(ts_pos + 5));
    }
    if (const size_t pid_pos = obj.find("\"pid\":");
        pid_pos != std::string::npos) {
      ev.pid = std::stoi(obj.substr(pid_pos + 6));
    }
    // First "tid" key only: the args object repeats the team-local tid.
    if (const size_t tid_pos = obj.find("\"tid\":");
        tid_pos != std::string::npos) {
      ev.tid = std::stoi(obj.substr(tid_pos + 6));
    }
    out.push_back(std::move(ev));
    pos = obj_end;
  }
  return out;
}

/// Checks balanced, never-negative B/E nesting per (tid, name). Events
/// within one tid come from one ring in emit order, so a running depth is
/// meaningful.
void expect_paired(const std::vector<JsonEv>& events,
                   const std::string& name) {
  std::map<int, int> depth;
  for (const JsonEv& ev : events) {
    if (ev.name != name) continue;
    if (ev.ph == 'B') {
      ++depth[ev.tid];
    } else if (ev.ph == 'E') {
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0)
          << "unmatched '" << name << "' E on tid " << ev.tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced '" << name << "' on tid " << tid;
  }
}

int count_events(const std::vector<JsonEv>& events, const std::string& name,
                 char ph) {
  int n = 0;
  for (const JsonEv& ev : events) n += ev.name == name && ev.ph == ph ? 1 : 0;
  return n;
}

/// The hook counts every 4-member region shows: one fork on the master,
/// every member an implicit task, and each barrier episode closed.
void expect_region_of_four(const std::vector<JsonEv>& events) {
  EXPECT_EQ(count_events(events, "parallel", 'B'), 1);
  EXPECT_EQ(count_events(events, "parallel", 'E'), 1);
  EXPECT_EQ(count_events(events, "implicit task", 'B'), 4);
  EXPECT_EQ(count_events(events, "implicit task", 'E'), 4);
  // Dynamic claims batch a varying number of chunks per fetch_add, so the
  // claim count depends on timing; at least one claim must appear.
  EXPECT_GE(count_events(events, "chunk claim", 'i'), 1);
  EXPECT_GE(count_events(events, "barrier", 'B'), 4);
  EXPECT_EQ(count_events(events, "barrier", 'B'),
            count_events(events, "barrier", 'E'));
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

// ---------------------------------------------------------------------------
// Ring recording + Chrome JSON
// ---------------------------------------------------------------------------

class TraceRingTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::trace_reset_for_test(); }
  void TearDown() override { rt::trace_reset_for_test(); }
};

TEST_F(TraceRingTest, DisabledModeEmitsNothing) {
  const std::string before = rt::trace_serialize_json();
  rt::trace_emit(TraceEv::kTaskCreate, 1, 2);
  parallel([] {}, ParallelOptions{2, true});
  EXPECT_EQ(rt::trace_serialize_json(), before);
}

TEST_F(TraceRingTest, SerializedJsonHasSchemaAndPairing) {
  rt::trace_enable_ring_for_test();
  parallel(
      [] {
        for_each(0, 64, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
        single([] {
          for (int i = 0; i < 8; ++i) task([] {});
        });
        barrier();
      },
      ParallelOptions{4, true});
  const std::string json = rt::trace_serialize_json();
  ASSERT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
  ASSERT_EQ(json.substr(json.size() - 2), "]}");

  const std::vector<JsonEv> events = parse_trace_events(json);
  ASSERT_FALSE(events.empty());
  std::set<int> implicit_tids;
  int master_gtid = -1;
  for (const JsonEv& ev : events) {
    // Schema: every record carries name/ph/pid/tid; non-metadata records
    // carry a non-negative timestamp.
    EXPECT_FALSE(ev.name.empty());
    EXPECT_TRUE(ev.ph == 'B' || ev.ph == 'E' || ev.ph == 'i' || ev.ph == 'M')
        << ev.ph;
    EXPECT_GE(ev.pid, 0);
    if (ev.ph != 'M') {
      // process_name metadata has no tid lane; every real record does.
      EXPECT_GE(ev.tid, 0);
      EXPECT_GE(ev.ts, 0.0) << ev.name;
    }
    if (ev.name == "implicit task" && ev.ph == 'B') implicit_tids.insert(ev.tid);
    if (ev.name == "parallel" && ev.ph == 'B') master_gtid = ev.tid;
  }
  EXPECT_EQ(implicit_tids.size(), 4u) << "every member an implicit task";
  expect_region_of_four(events);
  EXPECT_EQ(count_events(events, "dispatch init", 'i'), 4) << "one per member";
  EXPECT_EQ(count_events(events, "task create", 'i'), 8);
  EXPECT_EQ(count_events(events, "task", 'B'), 8);
  EXPECT_EQ(count_events(events, "task", 'E'), 8);

  // The fork brackets the master's lane: its members check out before the
  // master records parallel-end, so nothing of the region follows it.
  std::vector<const JsonEv*> master_lane;
  for (const JsonEv& ev : events) {
    if (ev.ph != 'M' && ev.tid == master_gtid) master_lane.push_back(&ev);
  }
  ASSERT_FALSE(master_lane.empty());
  EXPECT_EQ(master_lane.front()->name, "parallel");
  EXPECT_EQ(master_lane.front()->ph, 'B');
  EXPECT_EQ(master_lane.back()->name, "parallel");
  EXPECT_EQ(master_lane.back()->ph, 'E');
}

TEST_F(TraceRingTest, InterpBackendRecordsTheSameEventClasses) {
  // The other backend: the same runtime hooks fire when a MiniZig program
  // executes on the interpreter's real threads.
  rt::trace_enable_ring_for_test();
  const std::string source = R"(
pub fn main() void {
  var sum: i64 = 0;
  //#omp parallel num_threads(4)
  {
    //#omp for reduction(+: sum) schedule(dynamic, 4)
    for (0..64) |i| {
      sum = sum + i;
    }
  }
  @print(sum);
}
)";
  core::CompileOptions options;
  options.openmp = true;
  auto result = core::compile_source(source, options);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  std::ostringstream out;
  interp::InterpOptions iopts;
  iopts.out = &out;
  interp::Interp interp(*result.module, iopts);
  ASSERT_TRUE(interp.run_main());
  EXPECT_EQ(out.str(), "2016\n");

  expect_region_of_four(parse_trace_events(rt::trace_serialize_json()));
}

TEST_F(TraceRingTest, NpbCgClassSTraceIsWellFormedOnEveryMember) {
  // The acceptance scenario: a class-S NPB kernel at 4 threads under
  // tracing must serialize to parseable Chrome JSON with paired B/E for
  // parallel / implicit task / barrier on every member.
  rt::trace_enable_ring_for_test();
  const npb::CgClass cls = npb::cg_class('S');
  const npb::SparseMatrix a = npb::cg_make_matrix(cls.na, cls.nonzer);
  const npb::CgResult r = npb::cg_parallel(a, cls.niter, cls.shift, 4);
  EXPECT_TRUE(npb::cg_verify(r, cls)) << r.zeta;

  // Pairing is only meaningful when nothing overflowed: a dropped E would
  // read as an unbalanced lane, not a tracer bug.
  ASSERT_EQ(rt::trace_dropped_total(), 0u);

  const std::vector<JsonEv> events =
      parse_trace_events(rt::trace_serialize_json());
  std::set<int> members;
  for (const JsonEv& ev : events) {
    if (ev.name == "implicit task" && ev.ph == 'B') members.insert(ev.tid);
  }
  EXPECT_GE(members.size(), 4u);
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

TEST_F(TraceRingTest, FullRingCountsDropsInsteadOfWrapping) {
  rt::trace_enable_ring_for_test();
  rt::trace_set_ring_capacity_for_test(8);
  const rt::u64 before = rt::trace_dropped_total();
  // Capacity overrides bind at ring registration, so a fresh thread (fresh
  // ring) is needed; the pool's long-lived rings keep the default size.
  std::thread t([] {
    for (int i = 0; i < 50; ++i) {
      rt::trace_emit(TraceEv::kTaskCreate, i, 0);
    }
  });
  t.join();
  EXPECT_EQ(rt::trace_dropped_total() - before, 42u);
}

TEST_F(TraceRingTest, ConcurrentTeamsAndMidRegionDrainAreRaceFree) {
  // Two user threads fork independent teams while this thread drains the
  // rings mid-flight: the owner-write/acquire-drain discipline must keep
  // this TSan-clean, with the drain merely missing in-flight records.
  rt::trace_enable_ring_for_test();
  std::atomic<int> regions_left{2};
  auto driver = [&regions_left] {
    for (int i = 0; i < 20; ++i) {
      parallel(
          [] {
            for_each(0, 32, [](rt::i64) {},
                     ForOptions{{rt::ScheduleKind::kDynamic, 1}, false});
            single([] {
              for (int k = 0; k < 4; ++k) task([] {});
            });
          },
          ParallelOptions{2, true});
    }
    regions_left.fetch_sub(1, std::memory_order_relaxed);
  };
  std::thread t1(driver);
  std::thread t2(driver);
  while (regions_left.load(std::memory_order_relaxed) > 0) {
    (void)rt::trace_serialize_json();
    (void)rt::trace_dropped_total();
    std::this_thread::yield();
  }
  t1.join();
  t2.join();
  const std::vector<JsonEv> events =
      parse_trace_events(rt::trace_serialize_json());
  // Quiescent now: the full trace is published and balanced.
  for (const char* name : {"parallel", "implicit task", "barrier", "task"}) {
    expect_paired(events, name);
  }
}

TEST_F(TraceRingTest, WriteJsonRoundTripsThroughAFile) {
  rt::trace_enable_ring_for_test();
  parallel([] { barrier(); }, ParallelOptions{2, true});
  const std::string path = ::testing::TempDir() + "zomp_trace_roundtrip.json";
  ASSERT_TRUE(rt::trace_write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  // Each serialization re-calibrates the TSC tick rate, so timestamps
  // wobble at sub-microsecond scale between drains; the event structure is
  // what round-trips.
  const std::vector<JsonEv> a = parse_trace_events(text);
  const std::vector<JsonEv> b = parse_trace_events(rt::trace_serialize_json());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ph, b[i].ph);
    EXPECT_EQ(a[i].pid, b[i].pid);
    EXPECT_EQ(a[i].tid, b[i].tid);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-thread counters and the metrics report. Counts are process-lifetime
// and never reset, so every test reads before/after deltas.
// ---------------------------------------------------------------------------

using MetricArray = std::array<rt::u64, static_cast<std::size_t>(rt::Metric::kCount)>;

MetricArray metric_values() {
  MetricArray out{};
  for (rt::i32 m = 0; m < static_cast<rt::i32>(rt::Metric::kCount); ++m) {
    out[static_cast<std::size_t>(m)] =
        rt::metrics_value(static_cast<rt::Metric>(m));
  }
  return out;
}

rt::u64 delta(const MetricArray& before, const MetricArray& after,
              rt::Metric m) {
  return after[static_cast<std::size_t>(m)] -
         before[static_cast<std::size_t>(m)];
}

/// A dynamic loop, 16 tasks from a single, and an explicit barrier.
void counted_workload() {
  for_each(0, 256, [](rt::i64) {},
           ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
  single([] {
    for (int i = 0; i < 16; ++i) task([] {});
  });
  barrier();
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::metrics_set_enabled_for_test(true); }
  void TearDown() override { rt::metrics_set_enabled_for_test(false); }
};

TEST_F(MetricsTest, RegionWorkloadsFeedTheCounters) {
  const MetricArray before = metric_values();
  parallel([] { counted_workload(); }, ParallelOptions{4, true});
  const MetricArray after = metric_values();

  EXPECT_EQ(delta(before, after, rt::Metric::kParallelRegions), 1u);
  EXPECT_GE(delta(before, after, rt::Metric::kBarrierEpisodes), 4u);
  EXPECT_GE(delta(before, after, rt::Metric::kDispatchClaims), 1u);
  EXPECT_EQ(delta(before, after, rt::Metric::kTasksExecuted), 16u);
  EXPECT_EQ(delta(before, after, rt::Metric::kHotTeamHits) +
                delta(before, after, rt::Metric::kHotTeamRebuilds),
            1u);
}

TEST_F(MetricsTest, BarrierWaitTimeAccumulates) {
  const rt::u64 before = rt::metrics_value(rt::Metric::kBarrierWaitNs);
  parallel(
      [] {
        // Skew arrival so someone measurably waits.
        if (rt::current_thread().tid == 0) {
          const double t0 = wtime();
          while (wtime() - t0 < 0.005) {
          }
        }
        barrier();
      },
      ParallelOptions{4, true});
  EXPECT_GT(rt::metrics_value(rt::Metric::kBarrierWaitNs), before);
}

TEST_F(MetricsTest, ReportIsFencedAndListsEveryCounter) {
  parallel([] { barrier(); }, ParallelOptions{2, true});
  const std::string report = rt::metrics_report();
  EXPECT_EQ(report.rfind("ZOMP METRICS REPORT BEGIN\n", 0), 0u) << report;
  EXPECT_NE(report.find("ZOMP METRICS REPORT END\n"), std::string::npos);
  for (const char* name :
       {"parallel_regions", "hot_team_hits", "hot_team_rebuilds",
        "barrier_episodes", "barrier_wait_ns", "dispatch_claims",
        "tasks_executed", "tasks_stolen", "steal_attempts", "steal_lost",
        "cancellations_observed", "faults_injected"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(CounterTest, MetricsOffStillCountsButReadsNoClock) {
  rt::metrics_set_enabled_for_test(false);
  const MetricArray before = metric_values();
  parallel(
      [] {
        for_each(0, 64, [](rt::i64) {},
                 ForOptions{{rt::ScheduleKind::kDynamic, 4}, false});
      },
      ParallelOptions{2, true});
  const MetricArray after = metric_values();
  EXPECT_EQ(delta(before, after, rt::Metric::kParallelRegions), 1u);
  EXPECT_GE(delta(before, after, rt::Metric::kBarrierEpisodes), 2u);
  EXPECT_GE(delta(before, after, rt::Metric::kDispatchClaims), 1u);
  EXPECT_EQ(delta(before, after, rt::Metric::kBarrierWaitNs), 0u);
}

TEST(CounterTest, ExitedThreadCountsOutliveTheThread) {
  const MetricArray before = metric_values();
  std::thread user([] {
    parallel(
        [] {
          for_each(0, 64, [](rt::i64) {},
                   ForOptions{{rt::ScheduleKind::kDynamic, 1}, false});
        },
        ParallelOptions{2, true});
  });
  user.join();
  const MetricArray after = metric_values();
  // Only the exited thread forks, and its first fork cannot hit a cache.
  EXPECT_EQ(delta(before, after, rt::Metric::kParallelRegions), 1u);
  EXPECT_EQ(delta(before, after, rt::Metric::kHotTeamRebuilds), 1u);
  EXPECT_GE(delta(before, after, rt::Metric::kDispatchClaims), 1u);
}

TEST(CounterTest, ReadersRaceRunningRegionsSafely) {
  // Writers never RMW and readers only load, so reading every block while
  // the owners count is race-free (this test is for TSan), and a process
  // total never goes backwards.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    rt::u64 last_regions = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string report = rt::metrics_report();
      const rt::u64 regions = rt::metrics_value(rt::Metric::kParallelRegions);
      if (regions < last_regions ||
          report.rfind("ZOMP METRICS REPORT BEGIN\n", 0) != 0) {
        bad_reads.fetch_add(1, std::memory_order_relaxed);
      }
      last_regions = regions;
    }
  });
  for (int i = 0; i < 100; ++i) {
    parallel(
        [] {
          for_each(0, 128, [](rt::i64) {},
                   ForOptions{{rt::ScheduleKind::kDynamic, 2}, true});
          // Siblings may still be claiming: an in-region read of the
          // member blocks overlaps their writes.
          (void)rt::metrics_value(rt::Metric::kDispatchClaims);
          counted_workload();
        },
        ParallelOptions{4, true});
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

// ---------------------------------------------------------------------------
// MiniZig host fns
// ---------------------------------------------------------------------------

TEST(HostFnTest, WtickAndTraceFlushAreCallableFromMiniZig) {
  const std::string source = R"(
extern fn mz_omp_get_wtick() f64;
extern fn mz_omp_trace_flush() i64;
pub fn main() void {
  var total: i64 = 0;
  //#omp parallel for reduction(+: total) num_threads(4)
  for (0..100) |i| {
    total = total + 1;
  }
  @print(total);
  @print(mz_omp_get_wtick() > 0.0);
  @print(mz_omp_trace_flush());
}
)";
  core::CompileOptions options;
  options.openmp = true;
  auto result = core::compile_source(source, options);
  ASSERT_TRUE(result.ok) << result.diagnostics_text();
  std::ostringstream out;
  interp::InterpOptions iopts;
  iopts.out = &out;
  interp::Interp interp(*result.module, iopts);
  ASSERT_TRUE(interp.run_main());
  // trace_flush returns 0: tracing is not file-backed in this test.
  EXPECT_EQ(out.str(), "100\ntrue\n0\n");
}

}  // namespace
}  // namespace zomp
