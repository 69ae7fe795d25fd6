#include "runtime/worksharing.h"

#include <algorithm>

#include "runtime/metrics.h"

namespace zomp::rt {

StaticRange static_distribute(i64 lo, i64 hi, i64 step, i64 chunk, i32 tid,
                              i32 nthreads) {
  ZOMP_CHECK(step > 0, "worksharing loops must be normalised to step > 0");
  ZOMP_CHECK(nthreads >= 1 && tid >= 0 && tid < nthreads,
             "bad thread id for static distribution");
  StaticRange r;
  const i64 trips = trip_count(lo, hi, step);
  if (trips == 0) {
    r.lo = r.hi = hi;
    r.stride = step;  // harmless: the emitted loop guard fails immediately
    return r;
  }
  if (chunk <= 0) {
    // Blocked: floor(trips/n) everywhere, first (trips mod n) threads get one
    // extra — the same split libomp uses for schedule(static).
    const i64 base = trips / nthreads;
    const i64 rem = trips % nthreads;
    const i64 begin = i64{tid} * base + std::min<i64>(tid, rem);
    const i64 count = base + (tid < rem ? 1 : 0);
    if (count == 0) {
      r.lo = r.hi = hi;
      r.stride = step;
      return r;
    }
    r.lo = lo + begin * step;
    r.hi = lo + (begin + count) * step;
    r.hi = std::min(r.hi, hi);
    // One block only: stride past the end so a strided loop runs once.
    r.stride = (hi - lo) + step;
    r.last = begin + count == trips;
    return r;
  }
  // Round-robin chunks: thread t owns chunks t, t+n, t+2n, ...
  const i64 first = i64{tid} * chunk;
  if (first >= trips) {
    r.lo = r.hi = hi;
    r.stride = step;
    return r;
  }
  r.lo = lo + first * step;
  r.hi = std::min(lo + (first + chunk) * step, hi);
  r.stride = i64{nthreads} * chunk * step;
  const i64 last_chunk_index = (trips - 1) / chunk;
  r.last = last_chunk_index % nthreads == tid;
  return r;
}

void dispatch_init_static_cursor(const DispatchSlot& slot, MemberDispatch& md,
                                 i32 tid) {
  const StaticRange r = static_distribute(slot.lo, slot.hi, slot.step,
                                          slot.kind == ScheduleKind::kStatic
                                              ? slot.chunk
                                              : 0,
                                          tid, slot.nthreads);
  md.static_next = r.lo;
  md.static_hi = r.hi;
  md.static_stride = r.stride;
  md.static_span = r.hi - r.lo;
  md.last_chunk = false;
}

namespace {

/// Guided chunk size: half of an even split of what remains, bounded below by
/// the requested minimum chunk. This is the classic guided-self-scheduling
/// formula libomp uses for `guided`.
i64 guided_size(i64 remaining, i64 min_chunk, i32 nthreads) {
  const i64 half_split = (remaining + 2 * i64{nthreads} - 1) / (2 * i64{nthreads});
  return std::max<i64>(min_chunk, half_split);
}

/// Maps a claimed trip window [begin, begin + len) back to the original
/// iteration space, clamped at the trip count. The window that reaches the
/// trip count is the (unique) one holding the sequentially-last iteration:
/// claim windows on one cursor are disjoint.
bool serve_trips(const DispatchSlot& slot, i64 begin, i64 len,
                 Counters& counters, i64* plo, i64* phi, bool* plast) {
  const i64 end = std::min(begin + len, slot.trips);
  counters.add(Metric::kDispatchClaims);
  *plo = slot.lo + begin * slot.step;
  *phi = std::min(slot.lo + end * slot.step, slot.hi);
  *plast = end == slot.trips;
  return true;
}

}  // namespace

bool dispatch_next_chunk(DispatchSlot& slot, MemberDispatch& md,
                         Counters& counters, i64* plo, i64* phi, bool* plast) {
  switch (slot.kind) {
    case ScheduleKind::kStatic:
    case ScheduleKind::kAuto: {
      // Deterministic per-member cursor; `auto` maps to blocked static.
      // Blocks partition the iteration space, so exactly the block that ends
      // at slot.hi contains the sequentially-last iteration.
      if (md.static_span <= 0 || md.static_next >= slot.hi) return false;
      counters.add(Metric::kDispatchClaims);
      *plo = md.static_next;
      *phi = md.static_hi;
      *plast = *phi >= slot.hi;
      md.static_next += md.static_stride;
      if (md.static_next >= slot.hi) {
        md.static_span = 0;  // exhausted
      } else {
        md.static_hi = std::min(md.static_next + md.static_span, slot.hi);
      }
      return true;
    }
    case ScheduleKind::kDynamic: {
      const i64 chunk = std::max<i64>(1, slot.chunk);
      // Claim a *batch* of chunks with one fetch_add. The batch size comes
      // from a relaxed pre-read of the cursor: stale is fine — `next` only
      // grows and `trips` is fixed, so staleness can only mis-size the
      // batch, never un-own a claim (overshoot is clamped at the trip
      // count); scaling the batch to the remaining work (÷
      // kBatchDivisor·nthreads, cap kMaxBatchChunks) bounds the tail
      // imbalance to a 1/(kBatchDivisor·nthreads) fraction of what's left.
      // A stale pre-read at or past the end means the cursor truly is dry:
      // stale `seen` <= current `next`.
      const i64 seen = slot.next.load(std::memory_order_relaxed);
      if (seen >= slot.trips) return false;
      const i64 remaining_chunks = (slot.trips - seen + chunk - 1) / chunk;
      const i64 batch = std::clamp<i64>(
          remaining_chunks / (kBatchDivisor * i64{slot.nthreads}), 1,
          kMaxBatchChunks);
      const i64 claimed =
          slot.next.fetch_add(batch * chunk, std::memory_order_relaxed);
      if (claimed >= slot.trips) return false;
      return serve_trips(slot, claimed, batch * chunk, counters, plo, phi,
                         plast);
    }
    case ScheduleKind::kGuided: {
      // Guided shares the fetch_add cursor protocol: the chunk size is
      // computed from a relaxed pre-read of the cursor, then claimed with
      // one fetch_add — no CAS retry loop. A concurrent claim between the
      // read and the add only makes this chunk slightly larger than exact
      // guided-self-scheduling prescribes; it is still >= the requested
      // minimum, still clamped at the trip count, and the decreasing shape
      // is preserved because `remaining` only shrinks.
      const i64 min_chunk = std::max<i64>(1, slot.chunk);
      const i64 seen = slot.next.load(std::memory_order_relaxed);
      if (seen >= slot.trips) return false;
      const i64 size = guided_size(slot.trips - seen, min_chunk, slot.nthreads);
      const i64 claimed = slot.next.fetch_add(size, std::memory_order_relaxed);
      if (claimed >= slot.trips) return false;
      return serve_trips(slot, claimed, size, counters, plo, phi, plast);
    }
    case ScheduleKind::kRuntime:
      ZOMP_CHECK(false, "runtime schedule must be resolved before dispatch");
  }
  return false;
}

}  // namespace zomp::rt
