// Worksharing-loop distribution (OpenMP `for` construct).
//
// Two entry styles, mirroring libomp:
//  * static_init()  — pure per-thread bounds math for compile-time `static`
//    schedules; no shared state, called once per construct per thread.
//  * dispatch_*()   — shared-state chunk server for dynamic/guided/runtime
//    schedules (and for static kinds selected at run time, where it produces
//    the same deterministic assignment through a per-member cursor).
//
// The dispatch cursor is sharded per place (DESIGN.md S1.9): on a team whose
// binding spans several places, dynamic/guided claims go against a per-place
// cursor over a disjoint slab of the iteration space, and a member whose
// slab is dry steals half a remote slab's remainder with one fetch_add.
// Unbound teams (and nshards == 1) collapse to the original single shared
// cursor — same claims, same chunk shapes, same lastprivate owner.
//
// Iteration spaces are half-open [lo, hi) with positive step; the directive
// engine normalises loops to this form before emitting runtime calls (the
// paper's worksharing lowering does the same bound normalisation).
#pragma once

#include <vector>

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

/// Compile-time-specialized fast path (the optimizer's `static-spec` pass,
/// ABI entry `zomp_static_range`): the blocked chunkless step-1 case of
/// static_distribute, reduced to one contiguous [lo, hi) block per thread —
/// no stride, no chunk math, no dispatch ring. Produces bit-identical
/// assignments (including `last`) to
/// `static_distribute(lo, hi, /*step=*/1, /*chunk=*/0, tid, nthreads)`.
StaticRange static_block_range(i64 lo, i64 hi, i32 tid, i32 nthreads);

/// Trip count of the normalised loop [lo, hi) step `step` (> 0).
constexpr i64 trip_count(i64 lo, i64 hi, i64 step) {
  return hi > lo ? (hi - lo + step - 1) / step : 0;
}

/// A team's grouping of members into per-place dispatch shards, computed
/// once per binding by Team (team.cpp) and consumed by dispatch_init_shards
/// and the taskloop spray. Flat (nshards == 1, empty vectors) for unbound
/// or single-place teams.
struct ShardMap {
  i32 nshards = 1;
  std::vector<i32> member_shard;  ///< tid -> shard; empty = everyone shard 0
  std::vector<i32> weight;        ///< members per shard (slab sizing)
  std::vector<std::vector<i32>> shard_members;  ///< shard -> member tids
};

/// One per-place cursor over a disjoint slab [lo, hi) of the normalised
/// trip space (dynamic/guided only; DESIGN.md S1.9). `next` is the slab's
/// next unclaimed trip index, advanced ONLY by fetch_add — by slab members
/// in schedule-sized batches, by cross-place thieves in half-the-remainder
/// slab grabs. The bounds are immutable for the construct's lifetime, which
/// is what makes the protocol exactly-once: any fetch_add result below `hi`
/// owns [result, min(result+len, hi)) outright, whoever made it.
struct ShardCursor {
  alignas(kCacheLine) std::atomic<i64> next{0};
  i64 lo = 0;
  i64 hi = 0;
};

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

  /// Per-place claim cursors (shards[0..nshards) are live) for
  /// dynamic/guided. Unbound teams and static kinds use one shard spanning
  /// the whole trip space — exactly the old single shared cursor, with
  /// dynamic claims still batching several chunks per add (see
  /// kMaxBatchChunks in schedule.h) so fine-grained schedules do not
  /// ping-pong a cursor line per chunk.
  i32 nshards = 1;
  ShardCursor shards[kMaxPlaceShards];
  /// Members that have drained the construct; the last one frees the slot.
  alignas(kCacheLine) std::atomic<i32> done_members{0};
};

/// Per-member cursor into the current dispatch construct.
struct MemberDispatch {
  DispatchSlot* slot = nullptr;
  u64 seq = 0;
  i32 shard = 0;  ///< this member's place shard (dynamic/guided claims)
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
/// in the serving shard's lane of `counters`, the calling thread's block.
bool dispatch_next_chunk(DispatchSlot& slot, MemberDispatch& md,
                         Counters& counters, i64* plo, i64* phi, bool* plast);

/// Fills the per-member cursor for static kinds served through dispatch.
void dispatch_init_static_cursor(const DispatchSlot& slot, MemberDispatch& md,
                                 i32 tid);

/// Carves slot.trips into slabs sized proportionally to the map's member
/// weights and resets every live shard cursor. `sharded` false (static
/// kinds, unbound teams) collapses to one slab spanning everything. Called
/// by the winning initialiser before `ready` is published — the cursor
/// stores may be relaxed because `ready`'s release publishes them.
void dispatch_init_shards(DispatchSlot& slot, const ShardMap& map,
                          bool sharded);

}  // namespace zomp::rt
