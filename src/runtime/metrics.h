// Per-thread counters and the ZOMP_METRICS report (DESIGN.md S12).
//
// Every counting site in the runtime (pool/team/task/worksharing) bumps the
// calling thread's Counters block, always: one cache-line-aligned block per
// ThreadState, written only by its owner with a relaxed load + store (no
// RMW, no shared line), the single-writer discipline of the trace rings.
// Blocks are allocated from a heap-leaked registry and never freed, so a
// thread's counts outlive it. Readers sum blocks with relaxed loads at any
// time: metrics_value / metrics_report over every block, the one read path.
// A read racing a writer sees each counter at some recent value; it never
// tears and never blocks the writer.
//
// ZOMP_METRICS=true adds only the two steady-clock reads around each barrier
// episode (kBarrierWaitNs) and prints a libomp-fenced report (the
// OMP_DISPLAY_ENV BEGIN/END framing convention) to stderr at exit.
#pragma once

#include <atomic>
#include <string>

#include "runtime/common.h"

namespace zomp::rt {

enum class Metric : i32 {
  kParallelRegions = 0,   ///< forks entering run_region (all sizes)
  kHotTeamHits = 1,       ///< forks served from the hot-team cache
  kHotTeamRebuilds = 2,   ///< forks that (re)built a team through the pool
  kBarrierEpisodes = 3,   ///< barrier episodes entered (user + join)
  kBarrierWaitNs = 4,     ///< wall ns inside those episodes (ZOMP_METRICS)
  kDispatchClaims = 5,    ///< dynamic/guided/static chunk claims served
  kTasksExecuted = 6,     ///< explicit task bodies run (incl. inline)
  kTasksStolen = 7,       ///< tasks obtained via a successful deque steal
  kStealAttempts = 8,     ///< CAS-bearing steal() calls on victim deques
  kStealLost = 9,         ///< steals that lost the CAS race
  kCancellations = 10,    ///< cancel activations observed
  kCount = 11,
};

/// One thread's counts. add is owner-only; value may be read from any
/// thread.
class alignas(kCacheLine) Counters {
 public:
  /// Owner-only: a relaxed load + store, no RMW.
  void add(Metric m, u64 delta = 1) noexcept {
    std::atomic<u64>& c = counts_[static_cast<i32>(m)];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  u64 value(Metric m) const noexcept;

 private:
  std::atomic<u64> counts_[static_cast<i32>(Metric::kCount)]{};
};

/// A fresh zeroed block from the process registry. ThreadState's
/// constructor takes one, so every thread that touches the runtime has one.
Counters* counters_register();

namespace metrics_detail {

extern std::atomic<u32> g_enabled;

}  // namespace metrics_detail

/// ZOMP_METRICS: one relaxed load. Gates the barrier wait-time clock reads.
inline bool metrics_enabled() noexcept {
  return metrics_detail::g_enabled.load(std::memory_order_relaxed) != 0;
}

/// Seeds the flag from ZOMP_METRICS (env_bool semantics; malformed values
/// warn through the env funnel and read as false) and registers the at-exit
/// report writer once enabled. Called by GlobalIcv's constructor.
void metrics_init_from_env();

/// A counter summed over every registered block.
u64 metrics_value(Metric m) noexcept;

/// The fenced report: "ZOMP METRICS REPORT BEGIN/END" around one
/// `name = 'value'` line per counter and the fault-injection site counts
/// (pulled from fault.cpp at render time).
std::string metrics_report();

/// Test hook: force the ZOMP_METRICS flag.
void metrics_set_enabled_for_test(bool on);

}  // namespace zomp::rt
