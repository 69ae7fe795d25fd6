// Internal Control Variables (ICVs), OpenMP 5.2 §2.4.
//
// Scoping follows the spec: `nthreads-var`, `run-sched-var`, `dyn-var` and
// `max-active-levels-var` are per-data-environment (inherited by the implicit
// tasks of a new team); `num_threads` clauses override via a one-shot push.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "runtime/common.h"
#include "runtime/places.h"
#include "runtime/schedule.h"

namespace zomp::rt {

/// Per-data-environment control variables, inherited across fork.
struct Icv {
  /// Default team size requested for the next parallel region
  /// (`nthreads-var`). 0 means "use the global default".
  i32 nthreads = 0;
  /// Schedule applied when a loop says `schedule(runtime)` (`run-sched-var`).
  Schedule run_sched{ScheduleKind::kStatic, 0};
  /// Whether the implementation may deliver fewer threads than requested
  /// (`dyn-var`). We always *may* (resource limits), but when false we only
  /// shrink a team if the pool genuinely cannot grow.
  bool dynamic = false;
  /// Maximum number of nested active parallel levels
  /// (`max-active-levels-var`).
  i32 max_active_levels = 1;

  // -- Affinity (DESIGN.md S1.8) --------------------------------------------
  /// `bind-var`, list form: index into the OMP_PROC_BIND per-nesting-level
  /// list that the *next* fork from this environment consumes. Each fork
  /// hands children index + 1; GlobalIcv::bind_at clamps past the list end
  /// (the spec's "last element applies to deeper levels").
  i32 bind_index = 0;
  /// `place-partition-var`: this environment's slice of the process place
  /// table, [part_lo, part_lo + part_len) as place indices. part_len == 0
  /// means "the whole table" (resolved lazily so ICV construction needs no
  /// table lookup); spread forks narrow it per member so nested teams land
  /// on disjoint slices.
  i32 part_lo = 0;
  i32 part_len = 0;
};

/// Process-wide defaults, initialised once from the environment
/// (OMP_NUM_THREADS, OMP_SCHEDULE, OMP_DYNAMIC, OMP_MAX_ACTIVE_LEVELS,
/// OMP_NESTED) with ZOMP_* overrides. See env.h.
class GlobalIcv {
 public:
  static GlobalIcv& instance();

  /// Initial ICV set for the main thread and for detached helper threads.
  Icv initial() const;

  /// Hard cap on total runtime-owned threads (OMP_THREAD_LIMIT).
  i32 thread_limit() const { return thread_limit_; }

  /// Default team size when nothing requests otherwise.
  i32 default_team_size() const { return default_team_size_; }

  /// wait-policy-var (OMP_WAIT_POLICY): process-wide, read by every Backoff
  /// at construction. Atomic so a test / tuning call can flip it safely from
  /// any thread; waits already in progress keep their snapshotted spin
  /// budget and only *future* waits observe the new policy.
  WaitPolicy wait_policy() const {
    return wait_policy_.load(std::memory_order_relaxed);
  }
  void set_wait_policy(WaitPolicy policy) {
    wait_policy_.store(policy, std::memory_order_relaxed);
  }

  /// proc-bind-var (OMP_PROC_BIND): the per-nesting-level bind list. `index`
  /// past the end clamps to the last element; an empty list (variable unset
  /// or `false`) answers kFalse, which keeps binding entirely off unless a
  /// proc_bind clause asks for it.
  BindKind bind_at(i32 index) const;
  /// Replaces the list (tests; mirrors set_wait_policy's region-boundary
  /// visibility — only forks after the call observe it).
  void set_proc_bind_list(std::vector<BindKind> list);

  /// OMP_DISPLAY_AFFINITY: one binding report line per thread whenever its
  /// placement changes (api.h display_affinity prints on demand).
  bool display_affinity() const { return display_affinity_; }

  /// cancel-var (OMP_CANCELLATION, omp_get_cancellation): process-wide and,
  /// per spec, immutable after startup — there is no omp_set_cancellation.
  /// The setter exists for tests only (the suite runs in one process and
  /// cannot re-read the environment); it is atomic so flipping it mid-suite
  /// is TSan-clean. Teams consult it at every cancellation check, so a
  /// flipped value applies from the next region on.
  bool cancellation() const {
    return cancellation_.load(std::memory_order_relaxed);
  }
  void set_cancellation(bool on) {
    cancellation_.store(on, std::memory_order_relaxed);
  }

  /// max-task-priority-var (OMP_MAX_TASK_PRIORITY /
  /// omp_get_max_task_priority): the highest `priority` clause value the
  /// program may use; task creation clamps into [0, max] (team.cpp
  /// new_task). Defaults to 0 — priorities are inert unless the environment
  /// opts in, per spec. The setter exists for tests (single process, no
  /// environment re-read); fixed after init otherwise.
  i32 max_task_priority() const { return max_task_priority_; }
  void set_max_task_priority(i32 p) { max_task_priority_ = p < 0 ? 0 : p; }

  /// OMP_DISPLAY_ENV=true|verbose: prints the ICV table to stderr at runtime
  /// init, libomp's format (the standard first diagnostic for misconfigured
  /// deployments). `verbose` additionally prints the zomp-specific
  /// variables. Callable on demand for tests.
  void display_env(bool verbose) const;

  /// affinity-format-var (OMP_AFFINITY_FORMAT / omp_set_affinity_format):
  /// the template every binding report expands (team.h affinity_report).
  /// Field escapes: %n thread num, %N team size, %L nesting level,
  /// %i native thread id, %P process id, %H hostname, %A OS proc list of
  /// the bound place, %p place number (zomp extension), %% literal percent;
  /// OpenMP long names (%{thread_num} etc.) map to the same fields.
  /// Mutex-protected: the spec allows any thread to set it while others
  /// capture reports.
  std::string affinity_format() const;
  void set_affinity_format(std::string fmt);

 private:
  GlobalIcv();

  i32 default_team_size_ = 1;
  i32 thread_limit_ = 0;
  bool dynamic_default_ = false;
  i32 max_levels_default_ = 1;
  Schedule run_sched_default_{ScheduleKind::kStatic, 0};
  std::atomic<WaitPolicy> wait_policy_{WaitPolicy::kActive};
  std::vector<BindKind> proc_bind_list_;
  i32 max_task_priority_ = 0;
  bool display_affinity_ = false;
  std::atomic<bool> cancellation_{false};
  mutable std::mutex affinity_format_mu_;
  std::string affinity_format_;
};

}  // namespace zomp::rt
