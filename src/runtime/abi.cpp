#include "runtime/abi.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/api.h"
#include "runtime/pool.h"
#include "runtime/sync.h"
#include "runtime/team.h"
#include "runtime/trace.h"
#include "runtime/worksharing.h"

namespace {

using zomp::rt::current_thread;
using zomp::rt::i32;
using zomp::rt::i64;
using zomp::rt::Schedule;
using zomp::rt::ScheduleKind;
using zomp::rt::ThreadState;

/// The one i64 -> i32 narrowing of the mz_omp_ column: values outside the
/// i32 range saturate to the nearest bound instead of wrapping.
i32 narrow(i64 v) {
  return static_cast<i32>(std::clamp<i64>(v, std::numeric_limits<i32>::min(),
                                          std::numeric_limits<i32>::max()));
}

zomp::rt::SourceIdent to_ident(const zomp_ident_t* loc) {
  if (loc == nullptr) return zomp::rt::SourceIdent{};
  return zomp::rt::SourceIdent{loc->file, loc->construct, loc->line};
}

// CAS loop over plain memory via the __atomic builtins: the target object is
// an ordinary variable owned by user code (a reduction target, say), so the
// runtime must not assume std::atomic layout on it. These builtins are the
// same primitives libomp's atomic entry points use.
template <typename T, typename Op>
void atomic_rmw(T* addr, T value, Op op) {
  T expected;
  __atomic_load(addr, &expected, __ATOMIC_RELAXED);
  for (;;) {
    T desired = op(expected, value);
    if (__atomic_compare_exchange(addr, &expected, &desired, /*weak=*/true,
                                  __ATOMIC_ACQ_REL, __ATOMIC_RELAXED)) {
      return;
    }
  }
}

}  // namespace

extern "C" {

void zomp_fork_call(const zomp_ident_t* loc, zomp_microtask_t fn,
                    std::int32_t argc, void** args) {
  // Thin shim over the fork fast path (pool.cpp): hot-team recycling and the
  // doorbell handoff live behind rt::fork_call, so generated code and the
  // C++ API share one region-entry cost.
  (void)argc;
  zomp::rt::ForkOptions opts;
  opts.ident = to_ident(loc);
  zomp::rt::fork_call(fn, args, opts);
}

void zomp_fork_call_if(const zomp_ident_t* loc, zomp_microtask_t fn,
                       std::int32_t argc, void** args, std::int32_t cond) {
  (void)argc;
  zomp::rt::ForkOptions opts;
  opts.ident = to_ident(loc);
  opts.if_clause = cond != 0;
  zomp::rt::fork_call(fn, args, opts);
}

void zomp_push_num_threads(const zomp_ident_t* /*loc*/, std::int32_t n) {
  if (n > 0) current_thread().pushed_num_threads = n;
}

void zomp_push_proc_bind(const zomp_ident_t* /*loc*/, std::int32_t bind) {
  if (bind >= 0 && bind <= static_cast<std::int32_t>(zomp::rt::BindKind::kSpread)) {
    current_thread().pushed_proc_bind = static_cast<zomp::rt::BindKind>(bind);
  }
}

void zomp_for_static_init(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                          std::int64_t chunk, std::int64_t lo, std::int64_t hi,
                          std::int64_t step, std::int64_t* plo,
                          std::int64_t* phi, std::int64_t* pstride,
                          std::int32_t* plast) {
  ThreadState& ts = current_thread();
  const zomp::rt::StaticRange r = zomp::rt::static_distribute(
      lo, hi, step, chunk, ts.tid, ts.team->size());
  *plo = r.lo;
  *phi = r.hi;
  *pstride = r.stride;
  *plast = r.last ? 1 : 0;
}

void zomp_for_static_fini(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  // Shape parity with __kmpc_for_static_fini; nothing to release because the
  // static path keeps no shared state.
}

void zomp_static_range(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                       std::int64_t lo, std::int64_t hi, std::int64_t* plo,
                       std::int64_t* phi, std::int32_t* plast) {
  ThreadState& ts = current_thread();
  const zomp::rt::StaticRange r =
      zomp::rt::static_distribute(lo, hi, 1, 0, ts.tid, ts.team->size());
  *plo = r.lo;
  *phi = r.hi;
  *plast = r.last ? 1 : 0;
}

void zomp_dispatch_init(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                        std::int32_t sched_kind, std::int64_t chunk,
                        std::int64_t lo, std::int64_t hi, std::int64_t step) {
  ThreadState& ts = current_thread();
  Schedule schedule{static_cast<ScheduleKind>(sched_kind), chunk};
  ts.team->dispatch_init(ts, schedule, lo, hi, step);
}

std::int32_t zomp_dispatch_next(const zomp_ident_t* /*loc*/,
                                std::int32_t /*gtid*/, std::int64_t* plo,
                                std::int64_t* phi, std::int32_t* plast) {
  // The returned range may cover a batch of chunks claimed with a single
  // fetch_add (worksharing.cpp); generated code just runs [lo, hi) either
  // way, so fine-grained dynamic loops get the batching for free.
  ThreadState& ts = current_thread();
  bool last = false;
  const bool more = ts.team->dispatch_next(ts, plo, phi, &last);
  if (plast != nullptr) *plast = last ? 1 : 0;
  return more ? 1 : 0;
}

void zomp_dispatch_break(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  ThreadState& ts = current_thread();
  ts.team->dispatch_break(ts);
}

// -- Cancellation ----------------------------------------------------------

std::int32_t zomp_cancel(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                         std::int32_t construct) {
  ThreadState& ts = current_thread();
  zomp::rt::Team& team = *ts.team;
  switch (construct) {
    case ZOMP_CANCEL_PARALLEL:
      return team.cancel_activate(ts, zomp::rt::Team::kCancelParallel) ? 1 : 0;
    case ZOMP_CANCEL_LOOP:
      return team.cancel_activate(ts, zomp::rt::Team::kCancelLoop) ? 1 : 0;
    case ZOMP_CANCEL_TASKGROUP:
      return team.cancel_taskgroup(ts) ? 1 : 0;
    default:
      return 0;
  }
}

std::int32_t zomp_cancellation_point(const zomp_ident_t* /*loc*/,
                                     std::int32_t /*gtid*/,
                                     std::int32_t construct) {
  ThreadState& ts = current_thread();
  zomp::rt::Team& team = *ts.team;
  switch (construct) {
    case ZOMP_CANCEL_PARALLEL:
      return team.cancellation_requested(ts, zomp::rt::Team::kCancelParallel)
                 ? 1
                 : 0;
    case ZOMP_CANCEL_LOOP:
      // A pending parallel cancel subsumes the loop: the member must leave
      // the loop either way to reach the region end.
      return team.cancellation_requested(
                 ts, zomp::rt::Team::kCancelLoop |
                         zomp::rt::Team::kCancelParallel)
                 ? 1
                 : 0;
    case ZOMP_CANCEL_TASKGROUP:
      return team.taskgroup_cancelled(ts) ? 1 : 0;
    default:
      return 0;
  }
}

std::int32_t zomp_barrier(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  ThreadState& ts = current_thread();
  return ts.team->barrier_wait(ts.tid) ? 1 : 0;
}

std::int32_t zomp_single(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  ThreadState& ts = current_thread();
  return ts.team->single_begin(ts) ? 1 : 0;
}

void zomp_end_single(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  // The construct's implicit barrier (when not nowait) is emitted separately
  // by the directive engine, matching libomp.
}

std::int32_t zomp_master(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  return current_thread().tid == 0 ? 1 : 0;
}

void zomp_critical(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                   const char* name) {
  zomp::rt::critical_enter(name == nullptr ? "" : name);
}

void zomp_end_critical(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                       const char* name) {
  zomp::rt::critical_exit(name == nullptr ? "" : name);
}

void zomp_ordered(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                  std::int64_t index) {
  ThreadState& ts = current_thread();
  ts.team->ordered_enter(ts, index);
}

void zomp_end_ordered(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                      std::int64_t index) {
  ThreadState& ts = current_thread();
  ts.team->ordered_exit(ts, index);
}

std::int32_t zomp_reduce(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                         void* data, std::int64_t size, zomp_reduce_fn_t fn) {
  ThreadState& ts = current_thread();
  // The C combine fn rides in the ctx slot of the runtime's internal
  // signature (which threads caller state for the C++ API's functors).
  auto thunk = [](void* ctx, void* lhs, const void* rhs) {
    reinterpret_cast<zomp_reduce_fn_t>(ctx)(lhs, rhs);
  };
  const bool winner = ts.team->reduce_combine(
      ts, data, static_cast<std::size_t>(size), thunk,
      reinterpret_cast<void*>(fn), /*broadcast=*/false);
  return winner ? 1 : 0;
}

// -- Atomics --------------------------------------------------------------

void zomp_atomic_add_i64(std::int64_t* addr, std::int64_t value) {
  __atomic_fetch_add(addr, value, __ATOMIC_ACQ_REL);
}
void zomp_atomic_sub_i64(std::int64_t* addr, std::int64_t value) {
  __atomic_fetch_sub(addr, value, __ATOMIC_ACQ_REL);
}
void zomp_atomic_mul_i64(std::int64_t* addr, std::int64_t value) {
  atomic_rmw(addr, value, [](std::int64_t a, std::int64_t b) { return a * b; });
}
void zomp_atomic_div_i64(std::int64_t* addr, std::int64_t value) {
  atomic_rmw(addr, value, [](std::int64_t a, std::int64_t b) { return a / b; });
}
void zomp_atomic_min_i64(std::int64_t* addr, std::int64_t value) {
  atomic_rmw(addr, value,
             [](std::int64_t a, std::int64_t b) { return std::min(a, b); });
}
void zomp_atomic_max_i64(std::int64_t* addr, std::int64_t value) {
  atomic_rmw(addr, value,
             [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
}
void zomp_atomic_and_i64(std::int64_t* addr, std::int64_t value) {
  __atomic_fetch_and(addr, value, __ATOMIC_ACQ_REL);
}
void zomp_atomic_or_i64(std::int64_t* addr, std::int64_t value) {
  __atomic_fetch_or(addr, value, __ATOMIC_ACQ_REL);
}
void zomp_atomic_xor_i64(std::int64_t* addr, std::int64_t value) {
  __atomic_fetch_xor(addr, value, __ATOMIC_ACQ_REL);
}
void zomp_atomic_add_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return a + b; });
}
void zomp_atomic_sub_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return a - b; });
}
void zomp_atomic_mul_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return a * b; });
}
void zomp_atomic_div_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return a / b; });
}
void zomp_atomic_min_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return std::min(a, b); });
}
void zomp_atomic_max_f64(double* addr, double value) {
  atomic_rmw(addr, value, [](double a, double b) { return std::max(a, b); });
}

// -- Tasking --------------------------------------------------------------

namespace {

/// Firstprivate capture: placing the body copies the pack bytes into the
/// task's own storage (TaskBody::emplace_pack), so the caller may reuse its
/// pack as soon as the call returns.
struct PackedBody {
  void (*fn)(void* arg);
  const void* arg;
  std::int64_t size;

  static void place(void* self, zomp::rt::TaskBody& dst) {
    const auto& p = *static_cast<const PackedBody*>(self);
    dst.emplace_pack(p.fn, p.arg, static_cast<std::size_t>(p.size));
  }
};

}  // namespace

void zomp_task(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
               void (*fn)(void* arg), const void* arg, std::int64_t arg_size) {
  ThreadState& ts = current_thread();
  PackedBody body{fn, arg, arg_size};
  ts.team->task_create(ts, zomp::rt::TaskBodyRef(&PackedBody::place, &body));
}

void zomp_task_with_deps(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                         void (*fn)(void* arg), const void* arg,
                         std::int64_t arg_size, const zomp_depend_t* deps,
                         std::int32_t ndeps, std::int32_t flags,
                         std::int32_t priority) {
  ThreadState& ts = current_thread();
  zomp::rt::TaskOpts opts;
  const std::int32_t n = deps != nullptr && ndeps > 0 ? ndeps : 0;
  zomp::rt::SmallArray<zomp::rt::DepSpec, zomp::rt::kStackDeps> dep_specs(
      static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    dep_specs[i].addr = deps[i].addr;
    dep_specs[i].kind = static_cast<zomp::rt::DepKind>(deps[i].kind);
  }
  opts.deps = dep_specs.data();
  opts.ndeps = n;
  opts.deferred = (flags & ZOMP_TASK_UNDEFERRED) == 0;
  opts.final = (flags & ZOMP_TASK_FINAL) != 0;
  opts.untied = (flags & ZOMP_TASK_UNTIED) != 0;
  opts.priority = priority;
  PackedBody body{fn, arg, arg_size};
  ts.team->task_create_ex(ts, zomp::rt::TaskBodyRef(&PackedBody::place, &body),
                          opts);
}

void zomp_taskwait(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  ThreadState& ts = current_thread();
  ts.team->taskwait(ts);
}

void* zomp_taskgroup_begin(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/) {
  // Heap-allocated because generated code holds the group across two ABI
  // calls (the structured-block model of hl.h's stack TaskGroup does not
  // survive a split entry/exit pair).
  ThreadState& ts = current_thread();
  auto* group = new zomp::rt::TaskGroup();
  ts.team->taskgroup_begin(ts, *group);
  return group;
}

void zomp_taskgroup_end(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                        void* group) {
  ThreadState& ts = current_thread();
  auto* tg = static_cast<zomp::rt::TaskGroup*>(group);
  ts.team->taskgroup_end(ts, *tg);
  delete tg;
}

void zomp_taskloop(const zomp_ident_t* /*loc*/, std::int32_t /*gtid*/,
                   void (*fn)(std::int64_t chunk_lo, std::int64_t chunk_hi,
                              void* arg),
                   const void* arg, std::int64_t arg_size, std::int64_t lo,
                   std::int64_t hi, std::int64_t grainsize,
                   std::int64_t num_tasks) {
  ThreadState& ts = current_thread();
  // One shared copy of the pack: chunk thunks read fields by value into the
  // outlined function's parameters, so sharing preserves firstprivate
  // semantics, and the implicit taskgroup keeps the buffer alive.
  auto capture =
      std::make_shared<std::vector<unsigned char>>(static_cast<std::size_t>(arg_size));
  if (arg_size > 0) std::memcpy(capture->data(), arg, capture->size());
  ts.team->taskloop(ts, lo, hi, grainsize, num_tasks,
                    [fn, capture](i64 chunk_lo, i64 chunk_hi) {
                      fn(chunk_lo, chunk_hi, capture->data());
                    });
}

// -- Queries ----------------------------------------------------------------

// The routine table's definitions (abi.h): both columns call the zomp::
// routine directly, the mz_omp_ one through narrow() for its argument.
#define ZOMP_DEFINE_INT(q, impl)                                            \
  std::int32_t zomp_##q(void) { return static_cast<std::int32_t>(impl()); } \
  std::int64_t mz_omp_##q(void) { return static_cast<std::int64_t>(impl()); }
#define ZOMP_DEFINE_INT_INT(q, impl)                        \
  std::int32_t zomp_##q(std::int32_t a) { return impl(a); } \
  std::int64_t mz_omp_##q(std::int64_t a) { return impl(narrow(a)); }
#define ZOMP_DEFINE_VOID_INT(q, impl)        \
  void zomp_##q(std::int32_t a) { impl(a); } \
  void mz_omp_##q(std::int64_t a) { impl(narrow(a)); }
#define ZOMP_DEFINE_DOUBLE(q, impl)        \
  double zomp_##q(void) { return impl(); } \
  double mz_omp_##q(void) { return impl(); }
#define ZOMP_DEFINE_VOID(q, impl) \
  void zomp_##q(void) { impl(); } \
  void mz_omp_##q(void) { impl(); }
ZOMP_ROUTINES(ZOMP_DEFINE_INT, ZOMP_DEFINE_INT_INT, ZOMP_DEFINE_VOID_INT,
              ZOMP_DEFINE_DOUBLE, ZOMP_DEFINE_VOID)
#undef ZOMP_DEFINE_INT
#undef ZOMP_DEFINE_INT_INT
#undef ZOMP_DEFINE_VOID_INT
#undef ZOMP_DEFINE_DOUBLE
#undef ZOMP_DEFINE_VOID

void zomp_get_place_proc_ids(std::int32_t place, std::int32_t* ids) {
  zomp::place_proc_ids(place, ids);
}
void zomp_get_partition_place_nums(std::int32_t* nums) {
  zomp::partition_place_nums(nums);
}

void zomp_set_affinity_format(const char* format) {
  zomp::set_affinity_format(format);
}
std::uint64_t zomp_get_affinity_format(char* buffer, std::uint64_t size) {
  return zomp::get_affinity_format(buffer, static_cast<std::size_t>(size));
}
std::uint64_t zomp_capture_affinity(char* buffer, std::uint64_t size,
                                    const char* format) {
  return zomp::capture_affinity(buffer, static_cast<std::size_t>(size),
                                format);
}

}  // extern "C"
