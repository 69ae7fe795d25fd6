// Runtime fault injection & the fatal-error reporter (DESIGN.md S10).
//
// Real deployments lose threads, allocations, and affinity syscalls; the
// happy-path runtime the paper describes has no story for any of them. This
// layer gives the three runtime failure points a deterministic injection
// hook so tests can force each one and prove the degradation policy:
//
//   site       | injected failure            | degradation policy
//   -----------+-----------------------------+---------------------------------
//   kSpawn     | worker thread creation      | short-acquire: the team shrinks,
//              |                             | every sizing (barrier, reduction
//              |                             | tree, loop split) follows
//   kAlloc     | task / DepNode allocation   | undeferred inline execution
//   kAffinity  | sched_setaffinity           | logical binding only (place_num
//              |                             | stays, OS mask unchanged)
//
// Injection is seeded from ZOMP_FAULT_INJECT="spawn:p,alloc:p,affinity:p"
// (probabilities in [0,1]) and is DETERMINISTIC: probability p becomes a
// per-site period of round(1/p) calls, and the period'th call at each site
// fails. Tests get byte-for-byte reproducible failure schedules without
// seeding an RNG; p=1 fails every call, p=0 never fails.
#pragma once

#include <string>

#include "runtime/common.h"

namespace zomp::rt {

enum class FaultSite : i32 {
  kSpawn = 0,
  kAlloc = 1,
  kAffinity = 2,
};
inline constexpr i32 kNumFaultSites = 3;

/// True when this call at `site` should fail. The disabled fast path is one
/// relaxed atomic load (no counter traffic), so leaving the hooks compiled
/// into release builds costs nothing measurable.
bool fault_should_fail(FaultSite site) noexcept;

/// Parses a "spawn:p,alloc:p,affinity:p" spec (sites optional, any order)
/// into per-site probabilities. Returns false (leaving `out` untouched) on
/// malformed input. Exposed for the env-parser table test.
bool parse_fault_spec(const std::string& text, double out[kNumFaultSites]);

/// Replaces the active fault configuration (tests; also the env seeding
/// path). Resets every per-site counter so schedules are reproducible.
void fault_configure(const double probs[kNumFaultSites]);

/// Disables injection and clears counters.
void fault_reset();

/// Number of failures injected at `site` since the last configure/reset.
i64 fault_injected_count(FaultSite site) noexcept;

}  // namespace zomp::rt
