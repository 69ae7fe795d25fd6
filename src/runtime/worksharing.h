// Worksharing-loop distribution (OpenMP `for` construct).
//
// Two entry styles, mirroring libomp:
//  * static_init()  — pure per-thread bounds math for compile-time `static`
//    schedules; no shared state, called once per construct per thread.
//  * dispatch_*()   — shared-state chunk server for dynamic/guided/runtime
//    schedules (and for static kinds selected at run time, where it produces
//    the same deterministic assignment through a per-member cursor).
//
// Dynamic and guided claims go against one shared cursor per construct,
// advanced only by fetch_add, so every claim below the trip count owns its
// window outright.
//
// Iteration spaces are half-open [lo, hi) with positive step; the directive
// engine normalises loops to this form before emitting runtime calls (the
// paper's worksharing lowering does the same bound normalisation).
#pragma once

#include "runtime/common.h"
#include "runtime/schedule.h"

namespace zomp::rt {

class Counters;

/// Result of the static distribution for one thread.
struct StaticRange {
  i64 lo = 0;      ///< first iteration of this thread's first block
  i64 hi = 0;      ///< one past the last iteration of the first block
  i64 stride = 0;  ///< distance between successive block starts (original space)
  bool last = false;  ///< does this thread execute the sequentially-last iteration?
};

/// Computes thread `tid`-of-`nthreads`'s share of [lo, hi) step `step`.
/// chunk == 0 -> blocked ("pure static"): one contiguous range per thread.
/// chunk  > 0 -> round-robin chunks of `chunk` iterations.
/// step must be > 0 (loops are normalised by the front end).
StaticRange static_distribute(i64 lo, i64 hi, i64 step, i64 chunk, i32 tid,
                              i32 nthreads);

/// Trip count of the normalised loop [lo, hi) step `step` (> 0).
constexpr i64 trip_count(i64 lo, i64 hi, i64 step) {
  return hi > lo ? (hi - lo + step - 1) / step : 0;
}

/// Shared dispatch state for one in-flight worksharing construct.
///
/// A team owns a ring of these; construct instances are matched across
/// threads by sequence number (each member counts the worksharing constructs
/// it encounters — constructs are encountered by all members in the same
/// order per the OpenMP construct-nesting rules, so the sequence number is a
/// team-wide identity). Slot reuse applies natural backpressure when `nowait`
/// loops let fast threads run ahead.
///
/// The sequence protocol is monotonic *across regions* when a team is
/// recycled by the hot-team fast path (pool.h, Team::rearm): member ws_seq
/// counters carry forward, the join barrier has already drained every slot
/// (owner_seq back to 0), and the out-of-order check below compares against
/// strictly larger sequence numbers — so recycling needs no ring reset.
struct DispatchSlot {
  /// Sequence number of the construct currently occupying the slot; 0 = free.
  std::atomic<u64> owner_seq{0};
  /// Set once the winning initialiser has published the fields below.
  std::atomic<bool> ready{false};

  ScheduleKind kind = ScheduleKind::kStatic;
  i64 lo = 0, hi = 0, step = 1, chunk = 1;
  i64 trips = 0;
  i32 nthreads = 1;

  /// Next unclaimed trip index in [0, trips) for dynamic/guided, advanced
  /// ONLY by fetch_add: any result below `trips` owns [result,
  /// min(result + len, trips)) outright, which is the whole exactly-once
  /// argument. Dynamic claims batch several chunks per add (see
  /// kMaxBatchChunks in schedule.h) so fine-grained schedules do not
  /// ping-pong this line once per chunk.
  alignas(kCacheLine) std::atomic<i64> next{0};
  /// Members that have drained the construct; the last one frees the slot.
  alignas(kCacheLine) std::atomic<i32> done_members{0};
};

/// Per-member cursor into the current dispatch construct.
struct MemberDispatch {
  DispatchSlot* slot = nullptr;
  u64 seq = 0;
  /// Static-kind cursor (deterministic assignment without shared traffic).
  i64 static_next = 0;
  i64 static_hi = 0;
  i64 static_stride = 0;
  i64 static_span = 0;
  bool last_chunk = false;  ///< did the most recent chunk contain the last iteration?
};

/// Claims the next chunk from `slot` for member `md`. Returns false when the
/// construct is exhausted for this member. On success [*plo, *phi) is the
/// chunk in the original iteration space and *plast tells whether it contains
/// the sequentially-last iteration (for `lastprivate`). The claim is counted
/// on `counters`, the calling thread's block.
bool dispatch_next_chunk(DispatchSlot& slot, MemberDispatch& md,
                         Counters& counters, i64* plo, i64* phi, bool* plast);

/// Fills the per-member cursor for static kinds served through dispatch.
void dispatch_init_static_cursor(const DispatchSlot& slot, MemberDispatch& md,
                                 i32 tid);

}  // namespace zomp::rt
