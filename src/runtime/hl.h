// High-level C++ API over the zomp runtime.
//
// This is the public face of the library for C++ consumers: examples, the
// hand-written "reference" NPB kernels, and downstream users. It plays the
// role `#pragma omp` plays for C in the paper — same engine underneath as the
// generated-code ABI, different surface.
//
// Usage sketch:
//   zomp::parallel([&] {
//     zomp::for_each(0, n, [&](int64_t i) { y[i] = a * x[i] + y[i]; });
//   });
//   double s = zomp::parallel_reduce<double>(0, n, 0.0, std::plus<>{},
//                                            [&](int64_t i) { return x[i] * x[i]; });
#pragma once

#include <functional>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "runtime/api.h"
#include "runtime/pool.h"
#include "runtime/sync.h"
#include "runtime/team.h"
#include "runtime/worksharing.h"

namespace zomp {

struct ParallelOptions {
  /// Team size request; 0 = default (ICV / OMP_NUM_THREADS).
  rt::i32 num_threads = 0;
  /// `if` clause: false serialises the region.
  bool if_clause = true;
  /// `proc_bind` clause; kUnset defers to OMP_PROC_BIND (places.h,
  /// DESIGN.md S1.8). With binding active each member is pinned to its
  /// place at region entry and spread subdivides the place partition, so
  /// nested teams land on disjoint slices.
  rt::BindKind proc_bind = rt::BindKind::kUnset;
};

struct ForOptions {
  rt::Schedule schedule{rt::ScheduleKind::kStatic, 0};
  /// Skip the barrier at the end of the loop.
  bool nowait = false;
};

/// Runs `body` once on every member of a forked team (`#pragma omp
/// parallel`). Region entry is the runtime's fast path: a repeat of the
/// previous team size recycles the master's hot team (pool.h), and the body
/// rides through rt::fork_body without a std::function wrapper, so a
/// capture-heavy closure costs no per-region allocation.
template <typename Body>
void parallel(Body&& body, ParallelOptions opts = {}) {
  rt::ForkOptions fork_opts;
  fork_opts.num_threads = opts.num_threads;
  fork_opts.if_clause = opts.if_clause;
  fork_opts.proc_bind = opts.proc_bind;
  rt::fork_body(std::forward<Body>(body), fork_opts);
}

/// Worksharing loop over [lo, hi) (`#pragma omp for`). Must be reached by
/// every member of the innermost team. `body` is invoked once per iteration.
template <typename Body>
void for_each(rt::i64 lo, rt::i64 hi, Body&& body, ForOptions opts = {}) {
  rt::ThreadState& ts = rt::current_thread();
  rt::Team& team = *ts.team;
  if (opts.schedule.kind == rt::ScheduleKind::kStatic) {
    // Fast path: pure bounds math, no shared dispatch state.
    const rt::StaticRange r =
        rt::static_distribute(lo, hi, 1, opts.schedule.chunk, ts.tid,
                              team.size());
    const rt::i64 span = r.hi - r.lo;
    for (rt::i64 block = r.lo; block < hi; block += r.stride) {
      const rt::i64 end = std::min(block + span, hi);
      for (rt::i64 i = block; i < end; ++i) body(i);
    }
  } else {
    // Dynamic/guided/runtime: shared-cursor dispatch. Each dispatch_next may
    // return a whole batch of chunks claimed with one atomic (worksharing.cpp),
    // so this loop touches shared state far less than once per chunk.
    team.dispatch_init(ts, opts.schedule, lo, hi, 1);
    rt::i64 chunk_lo = 0;
    rt::i64 chunk_hi = 0;
    while (team.dispatch_next(ts, &chunk_lo, &chunk_hi, nullptr)) {
      for (rt::i64 i = chunk_lo; i < chunk_hi; ++i) body(i);
    }
  }
  // A pending `cancel parallel` abandons the closing barrier (the hl API has
  // no cancel surface of its own, but the team may be shared with generated
  // code); the caller still reaches the region join, which re-synchronises.
  if (!opts.nowait) (void)team.barrier_wait(ts.tid);
}

/// Fused `#pragma omp parallel for`.
template <typename Body>
void parallel_for(rt::i64 lo, rt::i64 hi, Body&& body, ForOptions for_opts = {},
                  ParallelOptions par_opts = {}) {
  parallel([&] { for_each(lo, hi, body, for_opts); }, par_opts);
}

namespace detail {

/// Type-erases a C++ combine functor into the runtime's combine signature.
/// Each member passes its *own* functor as ctx, so stateful combiners are
/// fine: a combining member only ever invokes the functor it brought.
template <typename T, typename Combine>
rt::ReduceCombineFn reduce_thunk() {
  return [](void* ctx, void* lhs, const void* rhs) {
    Combine& c = *static_cast<Combine*>(ctx);
    T* a = static_cast<T*>(lhs);
    *a = c(*a, *static_cast<const T*>(rhs));
  };
}

/// What task()/task_depend() hand the runtime to place: the callable
/// itself, or a function's address — a function is no object to copy.
template <typename Body>
decltype(auto) task_callable(Body&& body) {
  if constexpr (std::is_function_v<std::remove_reference_t<Body>>) {
    return &body;
  } else {
    return std::forward<Body>(body);
  }
}

}  // namespace detail

/// Tree-combines `value` across the innermost team and returns the combined
/// result on every member (an allreduce). Must be reached by all members,
/// like a barrier — and it *is* the construct's only synchronisation: one
/// rendezvous, no global lock (see runtime/reduce.h).
template <typename T, typename Combine>
T allreduce(T value, Combine&& combine) {
  static_assert(std::is_trivially_copyable_v<T>,
                "allreduce copies T as raw bytes");
  using C = std::remove_reference_t<Combine>;
  rt::ThreadState& ts = rt::current_thread();
  ts.team->reduce_combine(ts, &value, sizeof(T),
                          detail::reduce_thunk<T, C>(), &combine,
                          /*broadcast=*/true);
  return value;
}

/// Worksharing reduction inside an existing region (`#pragma omp for
/// reduction`): every member accumulates privately over its iterations, then
/// the team tree-combines the partials. Returns the combined value
/// (identical on all members). One barrier-equivalent total — the combine
/// rendezvous — where the seed's critical-section protocol needed a publish
/// barrier, a global lock and a final barrier.
template <typename T, typename Combine, typename Body>
T reduce_each(rt::i64 lo, rt::i64 hi, T identity, Combine&& combine,
              Body&& body, ForOptions opts = {}) {
  T local = identity;
  for_each(
      lo, hi, [&](rt::i64 i) { local = combine(local, body(i)); },
      ForOptions{opts.schedule, /*nowait=*/true});
  return allreduce(local, combine);
}

/// Fused `#pragma omp parallel for reduction(...)` over [lo, hi).
/// `body(i)` returns each iteration's contribution.
template <typename T, typename Combine, typename Body>
T parallel_reduce(rt::i64 lo, rt::i64 hi, T identity, Combine&& combine,
                  Body&& body, ForOptions for_opts = {},
                  ParallelOptions par_opts = {}) {
  static_assert(std::is_trivially_copyable_v<T>,
                "parallel_reduce copies T as raw bytes");
  using C = std::remove_reference_t<Combine>;
  T result = identity;
  parallel(
      [&] {
        T local = identity;
        for_each(
            lo, hi, [&](rt::i64 i) { local = combine(local, body(i)); },
            ForOptions{for_opts.schedule, /*nowait=*/true});
        // Tree-combine the partials; the winner of the rendezvous is tid 0 —
        // the forking thread itself — so it folds into `result` with no lock
        // and the region join publishes the write.
        rt::ThreadState& ts = rt::current_thread();
        if (ts.team->reduce_combine(ts, &local, sizeof(T),
                                    detail::reduce_thunk<T, C>(), &combine,
                                    /*broadcast=*/false)) {
          result = combine(result, local);
        }
      },
      par_opts);
  return result;
}

/// Explicit barrier for the innermost team (`#pragma omp barrier`). Returns
/// true when the barrier was abandoned because `cancel parallel` is pending
/// for the team (barriers are cancellation points) — the caller should run
/// to the end of the region; false in every normal episode.
inline bool barrier() {
  rt::ThreadState& ts = rt::current_thread();
  return ts.team->barrier_wait(ts.tid);
}

/// Runs `body` under the named critical section (`#pragma omp critical`).
template <typename Body>
void critical(Body&& body, const std::string& name = "") {
  rt::critical_enter(name);
  body();
  rt::critical_exit(name);
}

/// Runs `body` on exactly one member; `barrier_after` mirrors the implicit
/// barrier of a non-nowait single.
template <typename Body>
void single(Body&& body, bool barrier_after = true) {
  rt::ThreadState& ts = rt::current_thread();
  if (ts.team->single_begin(ts)) body();
  if (barrier_after) (void)ts.team->barrier_wait(ts.tid);
}

/// Runs `body` on the team master only (`#pragma omp master`; no barrier).
template <typename Body>
void master(Body&& body) {
  if (rt::current_thread().tid == 0) body();
}

/// Defers `body` as an explicit task (`#pragma omp task`). Any callable
/// with `void()` shape works; it is copied or moved straight into the
/// task's pooled block — inline up to rt::TaskBody::kInlineBytes of
/// captures, in one heap box beyond — so spawning a task calls no allocator
/// in the common case. The copy is destroyed before the task counts as
/// complete: after taskwait/taskgroup, no capture of a finished child is
/// still alive.
template <typename Body>
void task(Body&& body) {
  rt::ThreadState& ts = rt::current_thread();
  ts.team->task_create(ts, detail::task_callable(std::forward<Body>(body)));
}

/// Depend-clause helpers for task_depend: `dep_in(&x)` / `dep_out(&x)` /
/// `dep_inout(&x)` mirror `depend(in: x)` and friends. Addresses are
/// compared by identity (the OpenMP list-item model).
inline rt::DepSpec dep_in(const void* addr) {
  return rt::DepSpec{const_cast<void*>(addr), rt::DepKind::kIn};
}
inline rt::DepSpec dep_out(const void* addr) {
  return rt::DepSpec{const_cast<void*>(addr), rt::DepKind::kOut};
}
inline rt::DepSpec dep_inout(const void* addr) {
  return rt::DepSpec{const_cast<void*>(addr), rt::DepKind::kInout};
}

/// Extra task clauses for task_depend.
struct TaskOptions {
  bool if_clause = true;  ///< false: undeferred (runs after deps, inline)
  bool final_clause = false;
  rt::i32 priority = 0;
};

/// `#pragma omp task depend(...)`: defers `body` ordered after the sibling
/// tasks it depends on — last-writer edges for in, writer+reader edges for
/// out/inout (see runtime/task.h). Rides the same Team entry point as the
/// generated-code ABI (zomp_task_with_deps); `body` is placed like task()'s,
/// and its pooled dependence node needs no allocation either.
template <typename Body>
void task_depend(std::initializer_list<rt::DepSpec> deps, Body&& body,
                 TaskOptions opts = {}) {
  rt::ThreadState& ts = rt::current_thread();
  rt::TaskOpts topts;
  topts.deps = deps.begin();
  topts.ndeps = static_cast<rt::i32>(deps.size());
  topts.deferred = opts.if_clause;
  topts.final = opts.final_clause;
  topts.priority = opts.priority;
  ts.team->task_create_ex(ts, detail::task_callable(std::forward<Body>(body)),
                          topts);
}

/// `#pragma omp taskloop`: distributes [lo, hi) over chunk tasks inside an
/// implicit taskgroup; `body(i)` runs once per iteration. Same entry point
/// as the generated-code ABI (zomp_taskloop). Unlike for_each this is a
/// tasking construct: any single member may call it (typically inside
/// `single`), and idle members pick chunks up by stealing.
struct TaskloopOptions {
  rt::i64 grainsize = 0;  ///< iterations per chunk (0 = absent)
  rt::i64 num_tasks = 0;  ///< chunk count (0 = absent); wins over grainsize
};

template <typename Body>
void taskloop(rt::i64 lo, rt::i64 hi, Body&& body, TaskloopOptions opts = {}) {
  rt::ThreadState& ts = rt::current_thread();
  // Capturing `body` by reference is safe: taskloop's implicit taskgroup
  // blocks until every chunk task completed.
  ts.team->taskloop(ts, lo, hi, opts.grainsize, opts.num_tasks,
                    [&body](rt::i64 chunk_lo, rt::i64 chunk_hi) {
                      for (rt::i64 i = chunk_lo; i < chunk_hi; ++i) body(i);
                    });
}

/// Waits for the current task's children (`#pragma omp taskwait`).
inline void taskwait() {
  rt::ThreadState& ts = rt::current_thread();
  ts.team->taskwait(ts);
}

/// Runs `body` inside a taskgroup; returns when every task created in the
/// group (and their descendants) completed.
template <typename Body>
void taskgroup(Body&& body) {
  rt::ThreadState& ts = rt::current_thread();
  rt::TaskGroup group;
  ts.team->taskgroup_begin(ts, group);
  body();
  ts.team->taskgroup_end(ts, group);
}

}  // namespace zomp
