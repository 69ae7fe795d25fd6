// User-facing query/control API, the zomp equivalent of <omp.h>'s omp_*
// routine family, called by the C++ examples. The routine table in abi.h
// (ZOMP_ROUTINES) exports the scalar queries to C as zomp_* and to
// MiniZig's `extern fn` declarations as mz_omp_*; the comments here are
// their only documentation.
#pragma once

#include "runtime/common.h"
#include "runtime/places.h"
#include "runtime/schedule.h"

namespace zomp {

/// Id of the calling thread within the innermost team (0 = master).
rt::i32 thread_num();

/// Size of the innermost team (1 outside parallel regions).
rt::i32 num_threads();

/// Team size a region forked right now would get (omp_get_max_threads).
rt::i32 max_threads();

/// True while inside an active (size > 1) parallel region.
bool in_parallel();

/// Nesting level counters (omp_get_level / omp_get_active_level).
rt::i32 level();
rt::i32 active_level();

/// Size of the calling thread's ancestor team at nesting depth `at_level`
/// (omp_get_team_size): 0 is the initial implicit team (always 1), level()
/// is the innermost team; out-of-range answers -1. Walks the per-fork parent
/// chain (team.h), so it is only meaningful while the regions execute.
rt::i32 team_size(rt::i32 at_level);

/// max-task-priority-var (omp_get_max_task_priority): the ceiling task
/// `priority` clauses clamp to, from OMP_MAX_TASK_PRIORITY (default 0).
rt::i32 max_task_priority();

/// Number of processors the runtime believes it can use.
rt::i32 num_procs();

/// Sets the default team size for subsequent regions on this thread
/// (omp_set_num_threads); n <= 0 is ignored.
void set_num_threads(rt::i32 n);

/// dyn-var accessors (omp_set_dynamic / omp_get_dynamic).
void set_dynamic(bool dyn);
bool get_dynamic();

/// max-active-levels-var accessors (omp_set/get_max_active_levels); levels
/// below 1 are ignored.
void set_max_active_levels(rt::i32 levels);
rt::i32 get_max_active_levels();

/// run-sched-var accessors (omp_set_schedule / omp_get_schedule).
void set_schedule(rt::Schedule schedule);
rt::Schedule get_schedule();

/// wait-policy-var accessors (OMP_WAIT_POLICY). Process-wide: the policy
/// governs every runtime spin loop (barriers, joins, task drains).
void set_wait_policy(rt::WaitPolicy policy);
rt::WaitPolicy get_wait_policy();

/// cancel-var (omp_get_cancellation): whether `omp cancel` is honoured,
/// from OMP_CANCELLATION. Per spec there is no setter in the omp_* family;
/// tests use rt::GlobalIcv::set_cancellation directly.
bool get_cancellation();

// -- Affinity queries (omp_get_proc_bind / omp_get_*_place* family) ---------

/// Binding policy the next parallel region forked from this thread would use
/// (the first element of this environment's bind-var; omp_get_proc_bind).
rt::BindKind get_proc_bind();

/// Number of places in the process place table (omp_get_num_places; 0 when
/// no topology/places are available).
rt::i32 num_places();

/// Place the calling thread is assigned to, or -1 when unbound
/// (omp_get_place_num). Maintained even when the platform refused the
/// affinity syscall — binding degrades to a logical no-op.
rt::i32 place_num();

/// Processor count of `place`, 0 for out-of-range (omp_get_place_num_procs).
rt::i32 place_num_procs(rt::i32 place);

/// Copies `place`'s OS processor ids into `ids` (sized by the query above;
/// omp_get_place_proc_ids).
void place_proc_ids(rt::i32 place, rt::i32* ids);

/// Size of the calling thread's place partition
/// (omp_get_partition_num_places).
rt::i32 partition_num_places();

/// Copies the partition's place numbers into `nums`
/// (omp_get_partition_place_nums).
void partition_place_nums(rt::i32* nums);

/// Prints the calling thread's one-line binding report to stderr
/// (omp_display_affinity; same format OMP_DISPLAY_AFFINITY=true emits at
/// binding changes). The report expands affinity-format-var; a non-null
/// `format` overrides the ICV for this one call, as the spec's
/// omp_display_affinity(format) does.
void display_affinity();
void display_affinity(const char* format);

/// affinity-format-var accessors (omp_set_affinity_format /
/// omp_get_affinity_format). `get` copies at most `size` bytes including a
/// terminating NUL and returns the full format's length excluding the NUL
/// (the caller can size a retry buffer from it); size 0 / null buffer just
/// queries the length.
void set_affinity_format(const char* format);
std::size_t get_affinity_format(char* buffer, std::size_t size);

/// Expands `format` (null: affinity-format-var) for the calling thread into
/// `buffer` under the same truncation contract as get_affinity_format
/// (omp_capture_affinity).
std::size_t capture_affinity(char* buffer, std::size_t size,
                             const char* format);

/// Monotonic wall-clock in seconds (omp_get_wtime).
double wtime();

/// Timer resolution in seconds (omp_get_wtick).
double wtick();

}  // namespace zomp
