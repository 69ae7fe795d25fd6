// Worksharing-loop schedule kinds (OpenMP `schedule` clause).
#pragma once

#include <optional>
#include <string>

#include "runtime/common.h"

namespace zomp::rt {

/// OpenMP 5.2 schedule kinds supported by the worksharing engine.
/// `kStatic` with chunk 0 means the "pure static" blocked distribution;
/// with a chunk it is the round-robin chunked distribution.
enum class ScheduleKind : i32 {
  kStatic = 0,
  kDynamic = 1,
  kGuided = 2,
  kAuto = 3,     // implementation picks; we map it to static
  kRuntime = 4,  // read kind/chunk from the `run-sched-var` ICV
};

struct Schedule {
  ScheduleKind kind = ScheduleKind::kStatic;
  i64 chunk = 0;  // 0 = unspecified

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// Tuning for the shared-cursor dispatch path (worksharing.cpp).
///
/// Dynamic schedules claim several chunks per `fetch_add` so a
/// `schedule(dynamic, 1)` loop does not ping-pong the cursor's cache line
/// once per iteration. The batch is scaled to the work remaining —
/// at most 1/(kBatchDivisor × nthreads) of it, so the tail imbalance a big
/// batch could cause stays bounded — and capped at kMaxBatchChunks.
inline constexpr i64 kMaxBatchChunks = 16;
inline constexpr i64 kBatchDivisor = 4;

/// Parses the OMP_SCHEDULE syntax: `kind[,chunk]`, e.g. "dynamic,4".
/// Returns nullopt on malformed input (callers fall back to the default and
/// emit a warning, matching libomp's tolerance of bad environments).
std::optional<Schedule> parse_schedule(const std::string& text);

/// Human-readable name, for diagnostics and bench labels.
const char* schedule_kind_name(ScheduleKind kind);

}  // namespace zomp::rt
