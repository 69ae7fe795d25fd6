// Per-thread trace event rings (DESIGN.md S12).
//
// Hook sites threaded through the runtime (pool/team/worksharing/task/fault)
// call trace_emit. With ZOMP_TRACE=<file> set, every emitting thread appends
// to its own fixed-capacity ring of TSC-stamped records, serialized to Chrome
// trace-event JSON (chrome://tracing / Perfetto) at process exit or
// zomp::trace_flush().
//
// Disabled-mode cost contract (the one S10's cancellation points keep): a hook
// site is ONE relaxed atomic load and a branch when the rings are off. The
// ring append is out of line.
//
// Ring discipline (single writer, like the Counters blocks in metrics.h):
// each ring has exactly one writer (the owning thread), which stores records
// with plain writes and publishes them with a release store of the count;
// drains acquire the count and read only the published prefix. Records are
// never overwritten — a full ring counts drops instead (deterministic: the
// FIRST `capacity` events survive) — so a concurrent drain is race-free even
// mid-region; it merely misses records still in flight.
#pragma once

#include <atomic>
#include <string>

#include "runtime/common.h"

namespace zomp::rt {

/// Event ids, one per hook site kind; kCount bounds the rendering table.
enum class TraceEv : i32 {
  kParallelBegin = 0,      ///< master, before any member runs; arg0 = size
  kParallelEnd = 1,        ///< master, after every member checked out
  kImplicitTaskBegin = 2,  ///< each member, before its outlined body
  kImplicitTaskEnd = 3,    ///< each member, after the join rendezvous
  kDispatchInit = 4,       ///< member bound a worksharing slot; arg0 = trips
  kDispatchClaim = 5,      ///< chunk claimed; arg0/arg1 = [lo, hi)
  kBarrierEnter = 6,       ///< barrier episode entered; arg0 = kind (see below)
  kBarrierWaitEnd = 7,     ///< episode over (completed OR abandoned on cancel)
  kTaskCreate = 8,         ///< explicit task created (deferred or inline)
  kTaskSchedule = 9,       ///< a task body is about to run
  kTaskComplete = 10,      ///< that body (and accounting) finished
  kStealAttempt = 11,      ///< CAS-bearing steal() on a victim deque
  kStealSuccess = 12,      ///< the steal returned a task; arg0 = victim tid
  kCancel = 13,            ///< cancellation activated; arg0 = construct bits
  kFault = 14,             ///< fault injection fired; arg0 = FaultSite
  kCount = 15,
};

/// arg0 of kBarrierEnter/kBarrierWaitEnd: which barrier flavour.
enum : i64 {
  kBarrierUser = 0,  ///< Team::barrier_wait (explicit/implicit barrier)
  kBarrierJoin = 1,  ///< Team::join_barrier_wait (region end)
};

namespace trace_detail {

/// True while ring recording is on. False — the overwhelmingly common
/// state — short-circuits every hook site.
extern std::atomic<bool> g_ring_on;

void emit_slow(TraceEv ev, i64 arg0, i64 arg1) noexcept;

}  // namespace trace_detail

/// True when ring recording is on (ZOMP_TRACE set, or enabled for tests).
/// Hook sites never need this — trace_emit self-gates — but instrumentation
/// that must pre-compute event arguments can use it to skip the setup.
inline bool trace_ring_enabled() noexcept {
  return trace_detail::g_ring_on.load(std::memory_order_relaxed);
}

/// The hook. Disabled mode is exactly this relaxed load + a predicted
/// branch; the ring append lives in emit_slow (trace.cpp).
inline void trace_emit(TraceEv ev, i64 arg0 = 0, i64 arg1 = 0) noexcept {
  if (!trace_ring_enabled()) return;
  trace_detail::emit_slow(ev, arg0, arg1);
}

/// Parses ZOMP_TRACE from the environment and arms the subsystem: a
/// non-empty value enables ring recording, remembers the output path, and
/// registers the at-exit Chrome-JSON flush (once). An empty value is
/// malformed — there is nowhere to write — and routes through
/// warn_malformed_env. Called by GlobalIcv's constructor (the runtime's
/// config nexus); idempotent, and safe to call again from tests after
/// mutating the environment.
void trace_init_from_env();

/// Serializes every registered ring to Chrome trace-event JSON text:
/// {"traceEvents":[...]} with one pid/tid lane per (place, gtid), B/E pairs
/// for parallel/implicit-task/barrier events, instants for the rest, and
/// metadata records naming the lanes (per-ring drop counts ride in the
/// thread metadata args). Quiescent-drain per the ring discipline above.
std::string trace_serialize_json();

/// Writes trace_serialize_json() to `path`. False on I/O failure (warned on
/// stderr).
bool trace_write_json(const std::string& path);

/// The ZOMP_TRACE output path ("" when tracing is not file-backed).
std::string trace_output_path();

/// Total records dropped across all rings (ring-full overflow).
u64 trace_dropped_total();

/// Test hooks. enable_ring_for_test arms ring recording without a file;
/// set_ring_capacity_for_test bounds NEW rings (existing rings keep their
/// capacity — spawn a fresh thread to get a small one); reset_for_test
/// empties every ring, restores the default capacity, and disarms ring
/// recording. Reset requires emitting threads to be
/// quiescent, which a test that just joined its regions satisfies.
void trace_enable_ring_for_test();
void trace_set_ring_capacity_for_test(i64 records);
void trace_reset_for_test();

}  // namespace zomp::rt

namespace zomp {

/// Flushes the trace now: writes the Chrome JSON to the ZOMP_TRACE path.
/// No-op (returning false) when tracing is not file-backed. The same writer
/// runs automatically at process exit.
bool trace_flush();

}  // namespace zomp
