#include "runtime/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>

#include "runtime/env.h"
#include "runtime/fault.h"

namespace zomp::rt {
namespace metrics_detail {

std::atomic<u32> g_enabled{0};

}  // namespace metrics_detail

namespace {

/// Every block ever handed out. Heap-leaked (the trace-ring registry
/// pattern) so the at-exit report still reads the blocks of threads that
/// are gone; the deque never moves an element, so owners keep their
/// pointers while the lock guards only the container.
struct Registry {
  std::mutex mu;
  std::deque<Counters> blocks;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<bool> g_atexit_registered{false};

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kParallelRegions: return "parallel_regions";
    case Metric::kHotTeamHits: return "hot_team_hits";
    case Metric::kHotTeamRebuilds: return "hot_team_rebuilds";
    case Metric::kBarrierEpisodes: return "barrier_episodes";
    case Metric::kBarrierWaitNs: return "barrier_wait_ns";
    case Metric::kDispatchClaims: return "dispatch_claims";
    case Metric::kTasksExecuted: return "tasks_executed";
    case Metric::kTasksStolen: return "tasks_stolen";
    case Metric::kStealAttempts: return "steal_attempts";
    case Metric::kStealLost: return "steal_lost";
    case Metric::kCancellations: return "cancellations_observed";
    case Metric::kCount: break;
  }
  return "unknown";
}

void atexit_report() {
  std::fputs(metrics_report().c_str(), stderr);
}

}  // namespace

u64 Counters::value(Metric m) const noexcept {
  if (m < Metric::kParallelRegions || m >= Metric::kCount) return 0;
  return counts_[static_cast<i32>(m)].load(std::memory_order_relaxed);
}

Counters* counters_register() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return &r.blocks.emplace_back();
}

void metrics_init_from_env() {
  // env_bool warns through warn_malformed_env on unparseable values and
  // falls back to the default (off), so a bad ZOMP_METRICS degrades to the
  // no-clock path rather than failing startup.
  if (!env_bool("METRICS").value_or(false)) return;
  metrics_detail::g_enabled.store(1, std::memory_order_relaxed);
  if (!g_atexit_registered.exchange(true)) std::atexit(atexit_report);
}

u64 metrics_value(Metric m) noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  u64 total = 0;
  for (const Counters& c : r.blocks) total += c.value(m);
  return total;
}

std::string metrics_report() {
  std::string out = "ZOMP METRICS REPORT BEGIN\n";
  char buf[128];
  for (i32 i = 0; i < static_cast<i32>(Metric::kCount); ++i) {
    const Metric m = static_cast<Metric>(i);
    std::snprintf(buf, sizeof(buf), "  %s = '%" PRIu64 "'\n", metric_name(m),
                  metrics_value(m));
    out += buf;
  }
  static const char* kSiteNames[kNumFaultSites] = {"spawn", "alloc",
                                                   "affinity"};
  for (i32 s = 0; s < kNumFaultSites; ++s) {
    std::snprintf(buf, sizeof(buf),
                  "  faults_injected[%s] = '%" PRId64 "'\n", kSiteNames[s],
                  fault_injected_count(static_cast<FaultSite>(s)));
    out += buf;
  }
  out += "ZOMP METRICS REPORT END\n";
  return out;
}

void metrics_set_enabled_for_test(bool on) {
  metrics_detail::g_enabled.store(on ? 1u : 0u, std::memory_order_relaxed);
}

}  // namespace zomp::rt
