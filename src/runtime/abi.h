// C ABI targeted by generated code — the zomp analogue of libomp's __kmpc_*
// entry points, which the paper's outlined Zig regions call.
//
// Shape parity with __kmpc_* is deliberate (location descriptor first, global
// thread id second) so the lowering in src/core/ reads like the one in the
// paper. The gtid parameter exists for that parity and for diagnostics: the
// implementation resolves the calling thread via thread-local state, which is
// also how user threads that never called fork get bound.
//
// Worksharing contract (all loops normalised to half-open [lo, hi), step>0):
//   static:  call zomp_for_static_init once, then run the strided block loop
//            (see StaticRange in worksharing.h for the block/stride meaning).
//   dynamic: call zomp_dispatch_init once, then loop on zomp_dispatch_next
//            until it returns 0; each success yields one chunk [*plo, *phi).
#pragma once

#include <cstdint>

extern "C" {

struct zomp_ident_t {
  const char* file;
  const char* construct;
  std::int32_t line;
};

typedef void (*zomp_microtask_t)(std::int32_t gtid, std::int32_t tid,
                                 void** args);

// -- Parallel construct ------------------------------------------------------

/// Forks a team and runs `fn` on every member; returns after the implicit
/// (task-draining) join barrier.
///
/// Fork contract (DESIGN.md S1.6/S1.8): `args` must stay valid until the
/// call returns — the join barrier guarantees no member reads it afterwards,
/// so generated code builds the pointer array on the caller's stack. Region
/// entry is the runtime's fast path: a fork matching one of the master's
/// cached hot teams — keyed on (nesting level, num_threads request, binding
/// signature) — recycles it in place (workers woken through per-worker
/// atomic doorbells — no lock, no allocation, no re-applied affinity
/// masks); a changed request, binding, or place table rebuilds through the
/// pool. A short pool acquire may deliver fewer members than requested;
/// `zomp_get_num_threads` inside the region reports the actual size, and
/// every team structure (including the place partition) is sized from it.
void zomp_fork_call(const zomp_ident_t* loc, zomp_microtask_t fn,
                    std::int32_t argc, void** args);

/// `if` clause variant: cond == 0 serialises the region.
void zomp_fork_call_if(const zomp_ident_t* loc, zomp_microtask_t fn,
                       std::int32_t argc, void** args, std::int32_t cond);

/// `num_threads` clause: one-shot request consumed by the next fork on this
/// thread.
void zomp_push_num_threads(const zomp_ident_t* loc, std::int32_t n);

/// `proc_bind` clause: one-shot binding policy consumed by the next fork on
/// this thread (the __kmpc_push_proc_bind analogue). `bind` takes the
/// zomp::rt::BindKind / omp_proc_bind_t values (0 false, 1 true, 2 primary/
/// master, 3 close, 4 spread). The fork resolves clause > OMP_PROC_BIND
/// list entry for the nesting level > no binding; the team's placement
/// (place partition per member, sched_setaffinity at job-take) is computed
/// once at fork and carried by the hot-team cache, so a recycled team
/// re-arms without recomputing or re-applying masks (DESIGN.md S1.8).
void zomp_push_proc_bind(const zomp_ident_t* loc, std::int32_t bind);

// -- Worksharing loops --------------------------------------------------------

/// Static schedules. chunk <= 0 selects the blocked distribution. Outputs:
/// this thread's first block [*plo, *phi), the stride between successive
/// block starts, and whether this thread runs the sequentially-last
/// iteration (lastprivate support).
void zomp_for_static_init(const zomp_ident_t* loc, std::int32_t gtid,
                          std::int64_t chunk, std::int64_t lo, std::int64_t hi,
                          std::int64_t step, std::int64_t* plo,
                          std::int64_t* phi, std::int64_t* pstride,
                          std::int32_t* plast);

/// Marks the end of a statically-scheduled loop (diagnostic hook; keeps call
/// shape parity with __kmpc_for_static_fini).
void zomp_for_static_fini(const zomp_ident_t* loc, std::int32_t gtid);

/// This thread's single contiguous block [*plo, *phi) of [lo, hi) under a
/// chunkless step-1 schedule(static), with *plast set when the block ends at
/// hi: the same block and lastprivate owner as zomp_for_static_init with
/// chunk 0 and step 1, and no init/fini pairing. mzc does not emit it; it
/// stays exported because bench/suite's `zbench_traced` links with
/// `--wrap=zomp_static_range`.
void zomp_static_range(const zomp_ident_t* loc, std::int32_t gtid,
                       std::int64_t lo, std::int64_t hi, std::int64_t* plo,
                       std::int64_t* phi, std::int32_t* plast);

/// Dynamic/guided/runtime/auto schedules. `sched_kind` takes the
/// zomp::rt::ScheduleKind values (0 static, 1 dynamic, 2 guided, 3 auto,
/// 4 runtime).
void zomp_dispatch_init(const zomp_ident_t* loc, std::int32_t gtid,
                        std::int32_t sched_kind, std::int64_t chunk,
                        std::int64_t lo, std::int64_t hi, std::int64_t step);

/// Claims the next chunk; returns 0 when the construct is exhausted for this
/// thread — or when a loop/parallel cancellation is pending, in which case
/// the remaining iterations are abandoned (chunk claims are cancellation
/// points; the member detaches from the construct exactly as on exhaustion).
std::int32_t zomp_dispatch_next(const zomp_ident_t* loc, std::int32_t gtid,
                                std::int64_t* plo, std::int64_t* phi,
                                std::int32_t* plast);

/// Detaches the calling thread from its in-flight dispatch construct without
/// claiming further chunks. Generated code calls this on the cancellation
/// branch out of a dispatch-scheduled loop (the member still owes the
/// construct its detach, or the dispatch ring entry never frees). No-op when
/// no dispatch construct is bound (static loops, or already exhausted), so
/// the cancel label can call it unconditionally.
void zomp_dispatch_break(const zomp_ident_t* loc, std::int32_t gtid);

// -- Synchronisation -----------------------------------------------------------

/// Task-draining team barrier. Barriers are cancellation points (OpenMP 5.2
/// §5): returns 1 when the episode was ABANDONED because `cancel parallel`
/// is pending for the team — the caller must immediately return from the
/// outlined region (the non-cancellable join barrier re-synchronises) — and
/// 0 for every completed episode. Always 0 when OMP_CANCELLATION is off, so
/// pre-cancellation callers that ignore the result stay correct.
std::int32_t zomp_barrier(const zomp_ident_t* loc, std::int32_t gtid);

/// Returns 1 for exactly one thread per construct instance.
std::int32_t zomp_single(const zomp_ident_t* loc, std::int32_t gtid);
void zomp_end_single(const zomp_ident_t* loc, std::int32_t gtid);

/// Returns 1 on the team master.
std::int32_t zomp_master(const zomp_ident_t* loc, std::int32_t gtid);

/// Named critical sections; name == nullptr or "" is the unnamed critical.
void zomp_critical(const zomp_ident_t* loc, std::int32_t gtid,
                   const char* name);
void zomp_end_critical(const zomp_ident_t* loc, std::int32_t gtid,
                       const char* name);

/// Ordered region for normalised iteration `index` of the innermost
/// dispatch-scheduled loop.
void zomp_ordered(const zomp_ident_t* loc, std::int32_t gtid,
                  std::int64_t index);
void zomp_end_ordered(const zomp_ident_t* loc, std::int32_t gtid,
                      std::int64_t index);

/// Combines `*rhs` into `*lhs` (both point at the reduction's value type).
typedef void (*zomp_reduce_fn_t)(void* lhs, const void* rhs);

/// Team-tree reduction rendezvous (the __kmpc_reduce analogue; see
/// runtime/reduce.h for the protocol). Every member of the innermost team
/// passes a pointer to its private partial (`data`, `size` bytes, trivially
/// copyable) and the combine function. Returns 1 on exactly one member,
/// whose `data` then holds the team-combined value — that member (and only
/// it) folds the result into the shared reduction target; the construct's
/// ensuing barrier publishes the write. Returns 0 on every other member,
/// whose `data` is left holding an unspecified partial (interior tree nodes
/// fold partner subtrees into their own buffer on the way up). Replaces the
/// retired zomp_reduce_enter/exit global-critical protocol: the combine is
/// per-team and lock-free.
std::int32_t zomp_reduce(const zomp_ident_t* loc, std::int32_t gtid,
                         void* data, std::int64_t size, zomp_reduce_fn_t fn);

// -- Atomic updates (`omp atomic`) ---------------------------------------------

void zomp_atomic_add_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_sub_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_mul_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_div_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_min_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_max_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_and_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_or_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_xor_i64(std::int64_t* addr, std::int64_t value);
void zomp_atomic_add_f64(double* addr, double value);
void zomp_atomic_sub_f64(double* addr, double value);
void zomp_atomic_mul_f64(double* addr, double value);
void zomp_atomic_div_f64(double* addr, double value);
void zomp_atomic_min_f64(double* addr, double value);
void zomp_atomic_max_f64(double* addr, double value);

// -- Tasking ----------------------------------------------------------------------
//
// Contract (DESIGN.md S1.7). `zomp_task` is the zero-dependence fast path:
// the runtime copies `arg_size` bytes from `arg` (firstprivate capture by
// value) and defers the task onto the encountering member's work-stealing
// deque (executing inline for serial teams, descendants of final tasks, and
// deque overflow). `zomp_task_with_deps` is the full path: dependences are
// resolved at creation time against the encountering task's dependence
// table — `in` orders after the last `out`/`inout` on the same address,
// `out`/`inout` after the last writer and every reader since — and a task
// with unsatisfied predecessors parks on its dependence node (entering no
// deque) until the last predecessor's completion releases it. Addresses are
// compared by identity only (no overlap analysis), the standard OpenMP
// list-item model. Dependences only order sibling tasks (children of the
// same task region), per the spec.
//
// A `taskwait` waits for the encountering task's children, executing queued
// tasks meanwhile. `taskgroup_begin/end` bracket a group: end waits for
// every task created in the group AND their descendants. `zomp_taskloop`
// splits [lo, hi) into chunk tasks inside an implicit taskgroup; with
// num_tasks > 0 that many chunks (clamped to the trip count), else with
// grainsize > 0 ceil(trips/grainsize) chunks, else a runtime default.

/// Defers `fn(arg, arg_size bytes copied)` as an explicit task (fast path,
/// no dependences).
void zomp_task(const zomp_ident_t* loc, std::int32_t gtid,
               void (*fn)(void* arg), const void* arg, std::int64_t arg_size);

/// One entry of a depend clause. `kind`: 1 = in, 2 = out, 3 = inout
/// (zomp::rt::DepKind values).
struct zomp_depend_t {
  void* addr;
  std::int32_t kind;
};

/// Task creation flags for zomp_task_with_deps.
enum : std::int32_t {
  ZOMP_TASK_UNDEFERRED = 1,  ///< if(false): run at creation, after deps
  ZOMP_TASK_FINAL = 2,       ///< final(true): this task and descendants run
                             ///< undeferred (included-task model)
  ZOMP_TASK_UNTIED = 4,      ///< accepted no-op: tasks never suspend/migrate
};

/// Full-featured task creation: depend edges, if(false)/final undeferred
/// execution, priority hint (recorded; the work-stealing deques do not
/// reorder by priority — see task.h). `deps` may be null when ndeps == 0,
/// in which case this degrades to the zomp_task fast path plus flags.
void zomp_task_with_deps(const zomp_ident_t* loc, std::int32_t gtid,
                         void (*fn)(void* arg), const void* arg,
                         std::int64_t arg_size, const zomp_depend_t* deps,
                         std::int32_t ndeps, std::int32_t flags,
                         std::int32_t priority);

void zomp_taskwait(const zomp_ident_t* loc, std::int32_t gtid);

/// Opens a taskgroup on the encountering task and returns an opaque handle.
/// Every task created until the matching zomp_taskgroup_end — including by
/// nested tasks while they run — joins the group.
void* zomp_taskgroup_begin(const zomp_ident_t* loc, std::int32_t gtid);

/// Waits until every task of the group (and their descendants) completed,
/// then frees the handle. Must be called on the same task that called the
/// matching begin, innermost-first.
void zomp_taskgroup_end(const zomp_ident_t* loc, std::int32_t gtid,
                        void* group);

/// `taskloop`: runs fn(chunk_lo, chunk_hi, arg) as one task per chunk of
/// [lo, hi), inside an implicit taskgroup (returns when all chunks
/// completed). The runtime copies `arg_size` bytes from `arg` once; chunk
/// tasks share the read-only copy. grainsize/num_tasks <= 0 mean "clause
/// absent".
void zomp_taskloop(const zomp_ident_t* loc, std::int32_t gtid,
                   void (*fn)(std::int64_t chunk_lo, std::int64_t chunk_hi,
                              void* arg),
                   const void* arg, std::int64_t arg_size, std::int64_t lo,
                   std::int64_t hi, std::int64_t grainsize,
                   std::int64_t num_tasks);

// -- Cancellation (`omp cancel` / `omp cancellation point`) -------------------
//
// Contract (DESIGN.md S10). Everything is gated on the cancel-var ICV
// (OMP_CANCELLATION): with it off both entry points return 0 and cost one
// relaxed atomic load, so the ≤2% disabled-overhead budget holds. With it
// on, `zomp_cancel` activates cancellation of the named construct and
// returns 1 — the CALLER must then branch to the end of that construct
// (return from the outlined region for parallel, goto the loop end for a
// worksharing loop, return from the task/taskgroup body for taskgroup).
// `zomp_cancellation_point` returns 1 when a matching cancellation is
// pending and the caller must take the same branch. Semantics per construct:
//
//   parallel:  team-wide flag; user barriers abandon (zomp_barrier returns
//              1), queued tasks are discarded at their scheduling point
//              (bodies skipped, all accounting kept), and every member runs
//              to the region end where the join barrier re-synchronises.
//   for:       team-wide flag; dispatch chunk claims take the exhaustion
//              path (no further iterations start; running chunk bodies
//              finish). Cleared at the loop's closing barrier — cancellable
//              loops must not be nowait. A loop cancellation point also
//              responds to a pending PARALLEL cancel (the member must leave
//              the loop to reach the region end).
//   taskgroup: flags the innermost taskgroup of the calling task; queued
//              tasks of the group (and descendant groups) are discarded at
//              their scheduling points. zomp_cancel returns 1 only when the
//              calling task itself belongs to the cancelled group.

enum : std::int32_t {
  ZOMP_CANCEL_PARALLEL = 1,
  ZOMP_CANCEL_LOOP = 2,
  ZOMP_CANCEL_TASKGROUP = 4,
};

/// `omp cancel <construct>`: requests cancellation; returns 1 when the
/// calling thread must branch to the end of the cancelled construct.
std::int32_t zomp_cancel(const zomp_ident_t* loc, std::int32_t gtid,
                         std::int32_t construct);

/// `omp cancellation point <construct>`: returns 1 when a matching
/// cancellation is pending and the caller must branch to the construct end.
std::int32_t zomp_cancellation_point(const zomp_ident_t* loc,
                                     std::int32_t gtid,
                                     std::int32_t construct);

// -- Queries / control (the omp_* routine family) -----------------------------
//
// The routine table: one row per query, naming it and the zomp:: routine
// that implements and documents it (api.h; trace.h for trace_flush). Each
// row is exported twice: as zomp_<q> with i32 integers, and as mz_omp_<q>
// with i64 ones for MiniZig, whose only integer type is i64 — its `extern
// fn` declarations of the runtime API (the paper's route for calling omp_*
// from Zig) bind there. The declarations below, the definitions in abi.cpp
// and the interpreter's host functions all expand from the table, one macro
// argument per shape:
//
//   INT(q, impl)       i32 zomp_q(void)      i64 mz_omp_q(void)
//   INT_INT(q, impl)   i32 zomp_q(i32)       i64 mz_omp_q(i64)
//   VOID_INT(q, impl)  void zomp_q(i32)      void mz_omp_q(i64)
//   DOUBLE(q, impl)    double zomp_q(void)   double mz_omp_q(void)
//   VOID(q, impl)      void zomp_q(void)     void mz_omp_q(void)
//
// An mz_omp_ argument outside the i32 range saturates to the nearest bound,
// so 2^32 is an out-of-range level or place, not a wrapped-around 0.
#define ZOMP_ROUTINES(INT, INT_INT, VOID_INT, DOUBLE, VOID)       \
  INT(get_thread_num, zomp::thread_num)                           \
  INT(get_num_threads, zomp::num_threads)                         \
  INT(get_max_threads, zomp::max_threads)                         \
  INT(get_num_procs, zomp::num_procs)                             \
  INT(in_parallel, zomp::in_parallel)                             \
  INT(get_level, zomp::level)                                     \
  INT(get_max_active_levels, zomp::get_max_active_levels)         \
  INT(get_max_task_priority, zomp::max_task_priority)             \
  INT(get_cancellation, zomp::get_cancellation)                   \
  INT(trace_flush, zomp::trace_flush)                             \
  INT(get_proc_bind, zomp::get_proc_bind)                         \
  INT(get_num_places, zomp::num_places)                           \
  INT(get_place_num, zomp::place_num)                             \
  INT(get_partition_num_places, zomp::partition_num_places)       \
  INT_INT(get_team_size, zomp::team_size)                         \
  INT_INT(get_place_num_procs, zomp::place_num_procs)             \
  VOID_INT(set_num_threads, zomp::set_num_threads)                \
  VOID_INT(set_max_active_levels, zomp::set_max_active_levels)    \
  DOUBLE(get_wtime, zomp::wtime)                                  \
  DOUBLE(get_wtick, zomp::wtick)                                  \
  VOID(display_affinity, zomp::display_affinity)

#define ZOMP_DECLARE_INT(q, impl) \
  std::int32_t zomp_##q(void);    \
  std::int64_t mz_omp_##q(void);
#define ZOMP_DECLARE_INT_INT(q, impl)  \
  std::int32_t zomp_##q(std::int32_t); \
  std::int64_t mz_omp_##q(std::int64_t);
#define ZOMP_DECLARE_VOID_INT(q, impl) \
  void zomp_##q(std::int32_t);         \
  void mz_omp_##q(std::int64_t);
#define ZOMP_DECLARE_DOUBLE(q, impl) \
  double zomp_##q(void);             \
  double mz_omp_##q(void);
#define ZOMP_DECLARE_VOID(q, impl) \
  void zomp_##q(void);             \
  void mz_omp_##q(void);
ZOMP_ROUTINES(ZOMP_DECLARE_INT, ZOMP_DECLARE_INT_INT, ZOMP_DECLARE_VOID_INT,
              ZOMP_DECLARE_DOUBLE, ZOMP_DECLARE_VOID)
#undef ZOMP_DECLARE_INT
#undef ZOMP_DECLARE_INT_INT
#undef ZOMP_DECLARE_VOID_INT
#undef ZOMP_DECLARE_DOUBLE
#undef ZOMP_DECLARE_VOID

// The two list-valued affinity queries (DESIGN.md S1.8): each copies into a
// caller buffer sized by its count row in the table above.
void zomp_get_place_proc_ids(std::int32_t place, std::int32_t* ids);
void zomp_get_partition_place_nums(std::int32_t* nums);

// affinity-format-var (OMP_AFFINITY_FORMAT): the template binding reports
// expand — see runtime/icv.h for the field escapes. get/capture follow the
// spec's truncation contract: copy at most `size` bytes including the NUL,
// return the untruncated length (excluding the NUL).
void zomp_set_affinity_format(const char* format);
std::uint64_t zomp_get_affinity_format(char* buffer, std::uint64_t size);
std::uint64_t zomp_capture_affinity(char* buffer, std::uint64_t size,
                                    const char* format);

}  // extern "C"
