// Thread teams and per-thread runtime state.
//
// A Team is the runtime object behind one parallel region: its members, its
// task-aware barrier, the worksharing dispatch ring, and the per-construct
// counters that give `single`/`ordered` their identities. ThreadState is the
// per-OS-thread view (libomp's "thread descriptor"): which team the thread is
// in, its id, its data environment (ICVs), and its worksharing cursors.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/barrier.h"
#include "runtime/common.h"
#include "runtime/icv.h"
#include "runtime/metrics.h"
#include "runtime/places.h"
#include "runtime/reduce.h"
#include "runtime/task.h"
#include "runtime/worksharing.h"

namespace zomp::rt {

class Team;
class Worker;

/// One entry of the per-master hot-team cache (pool.cpp fast path;
/// DESIGN.md S1.6). The cache is a small fully-associative array keyed on
/// (parent nesting level, num_threads request, binding signature): programs
/// alternating between two region shapes — or forking nested teams from a
/// recycled outer one — hit their own entry instead of rebuild-churning the
/// single slot the cache used to be.
struct HotSlot {
  std::unique_ptr<Team> team;
  std::vector<Worker*> workers;
  i32 level = -1;      ///< parent team level at the fork (-1 = slot empty)
  i32 requested = 0;   ///< the num_threads REQUEST that built the team
  u64 bind_sig = 0;    ///< places.h binding_sig of the team's placement
  i32 undersized_reuses = 0;
  u64 last_use = 0;    ///< LRU stamp from ThreadState::hot_tick
  /// True while the slot's team is executing a region this thread is inside
  /// (an ancestor of the current fork). Such a slot must never be evicted or
  /// cannibalized — its workers are running, not parked.
  bool in_use = false;
};

/// Per-OS-thread runtime state. Exactly one per thread that ever touches the
/// runtime; reachable via `current_thread()`.
struct ThreadState {
  i32 gtid = 0;   ///< process-wide thread id (0 = the bootstrap thread)
  i32 tid = 0;    ///< id within the innermost team
  Team* team = nullptr;  ///< innermost team; never null after binding
  Icv icv;        ///< this thread's data environment
  i32 pushed_num_threads = 0;  ///< one-shot num_threads for the next fork
  /// One-shot proc_bind clause for the next fork (BindKind values;
  /// kUnset = none). The ABI's zomp_push_proc_bind parks the clause here,
  /// mirroring pushed_num_threads.
  BindKind pushed_proc_bind = BindKind::kUnset;

  u64 ws_seq = 0;      ///< worksharing constructs encountered in this region
  u64 single_seq = 0;  ///< single constructs encountered in this region
  u64 red_seq = 0;     ///< reduction constructs encountered in this region
  MemberDispatch dispatch;  ///< cursor for the in-flight dispatch construct

  /// Innermost executing task context; points into the team's implicit-task
  /// array between explicit tasks.
  TaskContext* current_task = nullptr;

  Worker* worker = nullptr;  ///< pool worker backing this state, if any

  /// This thread's counter block (metrics.h): the thread that runs as this
  /// state is its only writer. Never freed, so its counts outlive the state.
  Counters* const counters = counters_register();

  // -- Affinity (DESIGN.md S1.8) --------------------------------------------
  /// Place (index into the process PlaceTable) this thread is logically
  /// assigned to by the innermost bound region; -1 before any binding. This
  /// is what omp_get_place_num reports, and it is maintained even when the
  /// platform refuses sched_setaffinity (binding degrades to a no-op).
  i32 place_num = -1;
  /// Place whose processor mask was last *applied* through sched_setaffinity
  /// on this OS thread (-1 = never). The syscall cache: a hot-team re-arm
  /// with an unchanged binding signature re-assigns the same place, so
  /// Team::bind_member compares and skips the kernel round-trip.
  /// `bound_generation` pins the cache to the place table it indexed — a
  /// replaced table (tests) re-applies even for an equal place number.
  i32 bound_place = -1;
  u32 bound_generation = 0;

  /// Lazily-created size-1 team used when this thread executes runtime
  /// constructs outside any parallel region (orphaned constructs bind to an
  /// implicit team of one, per the spec).
  std::unique_ptr<Team> serial_team;

  // -- Hot-team cache (pool.cpp fork fast path; DESIGN.md S1.6) -------------
  // Recent teams this thread mastered, kept armed with their workers still
  // bound (parked on their doorbells, NOT on the pool's idle list). A fork
  // matching a slot's (level, request, binding signature) re-arms that team
  // in place; misses evict the least-recently-used slot. Per-level entries
  // mean pool workers acting as nested masters cache too — their pinned
  // sub-teams ride here until eviction or thread exit.
  static constexpr i32 kHotSlots = 4;
  HotSlot hot_slots[kHotSlots];
  u64 hot_tick = 0;  ///< LRU clock for the slots

  /// Defined in pool.cpp: dismisses every cached hot team so their workers
  /// return to the pool when this thread exits.
  ~ThreadState();
};

/// Returns (creating on first use) the calling thread's runtime state, bound
/// to its serial team if the thread is not currently in a parallel region.
ThreadState& current_thread();

/// Binds `state` as the calling thread's runtime state. Called once by pool
/// worker threads before they accept work.
void bind_thread_state(ThreadState* state);

/// Hands out process-unique global thread ids (shared by pool workers and
/// user threads that touch the runtime).
i32 allocate_gtid();

/// One-line binding report for `ts`, expanded from the affinity-format-var
/// ICV (icv.h, OMP_AFFINITY_FORMAT): nesting level, thread num, place num,
/// and the place's OS processor ids by default. Used by bind_member's
/// display path and by omp_display_affinity().
std::string affinity_report(const ThreadState& ts);

/// Expands an explicit affinity format string for `ts` — the engine behind
/// omp_capture_affinity(..., format) and the ICV-driven overload above.
/// Field escapes are documented on GlobalIcv::affinity_format(); an
/// unrecognised escape is copied through verbatim.
std::string affinity_report(const ThreadState& ts, const std::string& format);

/// The team executing one parallel region. Construction wires every member's
/// ThreadState; the master thread owns the object and destroys it after all
/// members have checked out.
class Team {
 public:
  /// `members` are the ThreadStates participating, index == tid. Level
  /// counters follow OpenMP semantics: `level` counts enclosing parallel
  /// regions, `active_level` only those with size > 1.
  Team(std::vector<ThreadState*> members, Icv icv, i32 level, i32 active_level);

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Re-arms this team for another region with the *same members* (the hot
  /// team fast path). Caller must be the master with every other member
  /// checked out and parked. Deliberately master-only — a handful of local
  /// stores, no allocation, and NOT ONE write to another member's state:
  ///
  ///  * Every construct-identity protocol in the team is monotonic (member
  ///    ws/single/red sequence counters against the dispatch ring's
  ///    owner_seq, the single counter, the reduction tree's tokens and
  ///    done_seq, the sense barrier's epoch), so worker-side counters simply
  ///    carry across regions — nothing to reset, no stale-token aliasing.
  ///  * The master's counters were clobbered by the outer save/restore at
  ///    the last join, so the team checkpoints them (checkpoint_master) and
  ///    this call writes them back, keeping all members in step.
  ///  * ICV inheritance is worker-side: each worker refreshes its data
  ///    environment from icv() when it takes the doorbell job, so the
  ///    master only stores the team copy here.
  void rearm(const Icv& icv, i32 level, i32 active_level);

  /// Persists the master's per-region sequence counters into the team at a
  /// hot join (before the outer binding is restored); rearm restores them.
  void checkpoint_master();

  i32 size() const { return static_cast<i32>(members_.size()); }
  i32 level() const { return level_; }
  i32 active_level() const { return active_level_; }
  const Icv& icv() const { return icv_; }
  ThreadState& member(i32 tid) { return *members_[static_cast<std::size_t>(tid)]; }

  /// Enclosing team of the region this team executes (nullptr for level-0
  /// serial teams). Set by the fork path (pool.cpp) before any member runs —
  /// on EVERY fork, hot re-arms included, because a cached team can be
  /// re-entered under a different ancestor. Valid only while the region is
  /// executing; it backs omp_get_team_size(level) and the future
  /// omp_get_ancestor_thread_num.
  Team* parent() const { return parent_; }
  void set_parent(Team* parent) { parent_ = parent; }

  // -- Affinity (DESIGN.md S1.8) --------------------------------------------

  /// Installs this region's placement (places.h plan_binding output).
  /// Master-only, before any member runs; a hot re-arm with an unchanged
  /// binding signature keeps the previous plan untouched.
  void set_binding(BindingPlan plan) { binding_ = std::move(plan); }
  const BindingPlan& binding() const { return binding_; }

  /// Applies member `tid`'s placement to the calling thread: overrides the
  /// place-partition ICVs copied from the team, records the assigned place,
  /// and — only when the place actually changed — issues sched_setaffinity
  /// (cached via ThreadState::bound_place, so hot-team rearms skip the
  /// syscall). A refused mask leaves the logical assignment in force.
  /// No-op for inactive plans. Emits the OMP_DISPLAY_AFFINITY report line
  /// when enabled and the placement changed.
  void bind_member(ThreadState& ts, i32 tid);

  /// Task-aware barrier: no member leaves until every member has arrived and
  /// every outstanding explicit task of the team has completed. Members help
  /// execute tasks while they wait.
  ///
  /// Barriers are cancellation points (OpenMP 5.2 §5): when `cancel parallel`
  /// has been activated for this team the call returns true WITHOUT waiting
  /// for the other members — the caller must immediately run to the region
  /// end (the join barrier, which is not cancellable, re-synchronises the
  /// team). Waiters already parked re-check the flag and abandon the episode
  /// the same way. Always false when cancellation is disabled.
  [[nodiscard]] bool barrier_wait(i32 tid);

  /// The region-end (join) rendezvous: identical protocol to barrier_wait but
  /// NEVER cancellable — after a cancel every member still meets here, so the
  /// master can safely tear down / re-arm the team. Separate epoch counters
  /// from the user barrier: a cancelled member skips user barriers, so its
  /// user-barrier episode count diverges from the survivors'; the join
  /// counters stay in step because nobody ever skips a join.
  void join_barrier_wait(i32 tid);

  // -- Cancellation (OpenMP 5.2 §11; DESIGN.md S10) --------------------------

  /// Construct-kind bits of cancel_request_ (a bitmask, libomp-style: one
  /// team-wide word rather than per-construct sequencing; sound because a
  /// cancellable worksharing loop cannot be nowait, so the loop bit is dead
  /// by the time the next loop starts — the completing barrier clears it).
  static constexpr i32 kCancelParallel = 1;
  static constexpr i32 kCancelLoop = 2;

  /// `omp cancel parallel|for`: requests cancellation of this team's region
  /// (kCancelParallel) or innermost worksharing loop (kCancelLoop). Returns
  /// true when the caller itself must now branch to the end of the cancelled
  /// construct — i.e. whenever cancellation is enabled (OMP_CANCELLATION),
  /// first requester or not. False (no-op) when disabled.
  bool cancel_activate(ThreadState& ts, i32 construct);

  /// `omp cancellation point parallel|for` (and the implicit checks in
  /// dispatch_next / barrier_wait / execute_task): true when a cancel of
  /// `construct` is pending and the caller must branch to the construct end.
  bool cancellation_requested(ThreadState& ts, i32 construct);

  /// `cancel taskgroup`: marks the innermost taskgroup of `ts`'s current
  /// task cancelled. Queued tasks of the group are discarded at their
  /// scheduling point (body skipped, accounting kept). Returns true when the
  /// *calling task* belongs to the cancelled group (it must return), false
  /// when disabled or no taskgroup is active.
  bool cancel_taskgroup(ThreadState& ts);

  /// True when `ts`'s current task belongs to a cancelled taskgroup (walks
  /// the group parent chain). The `cancellation point taskgroup` check.
  bool taskgroup_cancelled(ThreadState& ts) const;

  /// Clears all cancellation state. Master-only, at region end (after
  /// wait_all_checked_out) and at re-arm — the flags are per-region.
  void reset_cancellation() {
    cancel_request_.store(0, std::memory_order_relaxed);
  }

  // -- Worksharing dispatch ------------------------------------------------

  /// Binds the calling member to the dispatch slot for its next worksharing
  /// construct, initialising the slot if this member arrives first.
  /// `schedule(runtime)` is resolved against the member's ICVs here.
  void dispatch_init(ThreadState& ts, Schedule schedule, i64 lo, i64 hi,
                     i64 step);

  /// Claims the next chunk. Returns false (and detaches the member from the
  /// slot, freeing it once all members detached) when exhausted — or when a
  /// loop/parallel cancel is pending, in which case the remaining iterations
  /// are abandoned un-executed (the cancellation drain: each member's next
  /// claim detaches instead).
  bool dispatch_next(ThreadState& ts, i64* plo, i64* phi, bool* plast);

  /// Detaches the calling member from its bound dispatch slot without
  /// claiming further chunks — the escape hatch for a cancellation branch
  /// taken from inside a dispatch-driven loop body (the member still owes
  /// the slot its detach or the ring entry never frees). No-op when no slot
  /// is bound (static-path loops, or dispatch_next already returned false).
  void dispatch_break(ThreadState& ts);

  // -- Per-construct identities ---------------------------------------------

  /// True for exactly one member per `single` construct instance.
  bool single_begin(ThreadState& ts);

  // -- Ordered regions -------------------------------------------------------

  /// Blocks until all iterations before normalised index `index` of the
  /// current ordered loop have released their ordered region. Ordered loops
  /// are always lowered through the dispatch path, whose init resets the
  /// turnstile before any member can claim a chunk.
  void ordered_enter(ThreadState& ts, i64 index);
  void ordered_exit(ThreadState& ts, i64 index);

  // -- Tasking ----------------------------------------------------------------

  TaskPool& tasks() { return tasks_; }

  /// Creates (or, for size-1 teams, `if(false)` tasks and descendants of
  /// final tasks, runs inline) an explicit task whose body is `body`. This is
  /// the zero-dependence fast path; depend/final/priority go through
  /// task_create_ex. The body is constructed in the task's block (task.h).
  void task_create(ThreadState& ts, TaskBodyRef body, bool deferred = true);

  /// Full-featured task creation: depend(in/out/inout) edges against the
  /// current task's dependence table, if(false)/final undeferred execution
  /// (after dependences are satisfied), priority recording. With
  /// opts.ndeps == 0 this degrades to exactly the task_create fast path.
  void task_create_ex(ThreadState& ts, TaskBodyRef body, const TaskOpts& opts);

  /// `taskloop`: splits [lo, hi) into chunk tasks and runs `chunk_body(clo,
  /// chi)` as one task per chunk inside an implicit taskgroup (returns when
  /// every chunk completed). num_tasks > 0 requests that many chunks
  /// (clamped to the trip count); otherwise grainsize > 0 gives
  /// ceil(trips/grainsize) chunks; otherwise a default of
  /// kTaskloopChunksPerMember chunks per member keeps thieves fed without
  /// drowning the deques.
  void taskloop(ThreadState& ts, i64 lo, i64 hi, i64 grainsize, i64 num_tasks,
                std::function<void(i64, i64)> chunk_body);

  /// Task scheduling point: waits until the current task's children finished,
  /// executing queued tasks while waiting. Also retires the current task's
  /// dependence table — every registered node is complete once the children
  /// count drains, so later siblings start against a fresh wavefront.
  void taskwait(ThreadState& ts);

  void taskgroup_begin(ThreadState& ts, TaskGroup& group);
  void taskgroup_end(ThreadState& ts, TaskGroup& group);

  /// Runs queued tasks until the pool is momentarily empty. Used by tests and
  /// by the join path.
  bool run_one_task(ThreadState& ts);

  // -- Reductions --------------------------------------------------------------

  /// Team-wide reduction rendezvous (see reduce.h): tree-combines every
  /// member's `data` with `fn`, returning true on the single member (the
  /// winner) that must fold the combined value — now in its `data` — into
  /// the construct's shared target. With `broadcast`, every member's `data`
  /// holds the combined value on return. One barrier-equivalent, no global
  /// lock. Must be reached by every member of the team, like a barrier.
  bool reduce_combine(ThreadState& ts, void* data, std::size_t size,
                      ReduceCombineFn fn, void* ctx, bool broadcast);

  // -- Join bookkeeping ------------------------------------------------------

  /// Non-master members call this as their very last access to the team.
  void check_out() { checked_out_.fetch_add(1, std::memory_order_release); }

  /// Master blocks until all other members have checked out, making it safe
  /// to destroy the team.
  void wait_all_checked_out();

 private:
  static constexpr i32 kDispatchRing = 8;

  /// The barrier protocols themselves; the public entry points wrap them
  /// with the S12 observability hooks (episode events + wait-time metrics).
  bool barrier_wait_body(i32 tid);
  void join_barrier_wait_body(i32 tid);
  /// Default taskloop chunking (neither grainsize nor num_tasks): this many
  /// chunks per team member, enough slack for stealing to balance uneven
  /// chunk costs while keeping per-task overhead amortised.
  static constexpr i64 kTaskloopChunksPerMember = 4;

  /// Runs a task body with full parent/group accounting. `counted` says the
  /// task went through the pool (and must decrement `outstanding`); tasks
  /// that overflowed the bounded deque run inline with counted == false.
  /// The body is destroyed before any waiter can see the task complete.
  void execute_task(ThreadState& ts, std::unique_ptr<Task> task,
                    bool counted = true);

  /// Runs `body` undeferred at the creation point in a fresh task context
  /// (the if(false)/final/serial-team path).
  void run_task_inline(ThreadState& ts, TaskBodyRef body, bool final_ctx);

  /// Builds a deferred task and links it into the parent/group counts — the
  /// one place Task construction and accounting live, shared by the fast
  /// path, the with-clauses path, and the dependence path (which parks the
  /// result instead of enqueueing it).
  std::unique_ptr<Task> new_task(ThreadState& ts, TaskBodyRef body,
                                 i32 priority);

  /// Publishes a ready task: pushes onto `ts`'s deque or, when the bounded
  /// deque is full, executes it inline — a legal task scheduling point that
  /// also releases the rejected task's own successors. A push that finds
  /// the queue empty wakes one parked barrier waiter to help (S1.4).
  void enqueue_task(ThreadState& ts, std::unique_ptr<Task> task);

  /// Marks `node` complete and releases its successors: each successor whose
  /// predecessor count hits zero is unparked onto `ts`'s deque. Called
  /// before the completing task's own outstanding/children decrements so the
  /// join barrier's drain count never dips to zero with a releasable task
  /// still parked.
  void complete_depnode(ThreadState& ts, DepNode& node);

  /// True when `task` must be discarded at its scheduling point: a parallel
  /// cancel is pending, or the task's taskgroup chain contains a cancelled
  /// group. execute_task skips the body but keeps all accounting.
  bool task_discarded(const Task& task) const;

  /// The one slot-detach protocol, shared by exhaustion (dispatch_next) and
  /// cancellation escape (dispatch_break): the last member to detach frees
  /// the ring entry for reuse.
  void dispatch_detach(ThreadState& ts, DispatchSlot& slot);

  std::vector<ThreadState*> members_;
  Icv icv_;
  i32 level_ = 0;
  i32 active_level_ = 0;
  /// Enclosing team while this region executes (see parent()).
  Team* parent_ = nullptr;

  /// This region's placement; inactive (default) teams bind nothing.
  BindingPlan binding_;

  // Task-aware sense barrier (epoch-based so members need no local flag).
  // The arrival counter every member RMWs and the epoch the waiters spin on
  // each start a 128-byte pair of lines, so the adjacent-line prefetcher
  // never couples them, wherever the heap places the Team.
  alignas(2 * kCacheLine) std::atomic<i32> bar_arrived_{0};
  alignas(2 * kCacheLine) std::atomic<u64> bar_epoch_{0};
  /// Join-barrier counters: same sense-barrier protocol, separate identity
  /// stream so cancelled members (who skip user barriers) stay in step at
  /// the region end. Shares bar_gate_ — park predicates re-check both.
  alignas(2 * kCacheLine) std::atomic<i32> join_arrived_{0};
  alignas(2 * kCacheLine) std::atomic<u64> join_epoch_{0};
  /// Pending-cancel bitmask (kCancelParallel | kCancelLoop). The loop bit is
  /// cleared by the last arriver of the next completed user barrier (the
  /// cancelled loop's closing barrier — cancellable loops are never nowait);
  /// the parallel bit by reset_cancellation at region end.
  alignas(kCacheLine) std::atomic<i32> cancel_request_{0};
  /// Condvar park for join-barrier waiters that outlasted the doorbell grace
  /// (ROADMAP "barrier waiters never condvar-park" item; protocol in
  /// barrier.h). Woken (all) by the epoch flip and a parallel cancel, and
  /// (one) by a task landing in an empty queue, so parked waiters still help
  /// with late task bursts. Every predicate parked here includes
  /// `tasks_.queued() > 0`, which is what makes wake_one sound.
  WaitGate bar_gate_;

  DispatchSlot dispatch_ring_[kDispatchRing];

  alignas(kCacheLine) std::atomic<u64> single_counter_{0};

  // One ordered loop in flight at a time (ordered + nowait is rejected by the
  // directive engine, so the enclosing loop's barrier serialises instances).
  alignas(kCacheLine) std::atomic<i64> ordered_next_{0};

  /// Implicit-task contexts, one per member (index == tid). Owned by the
  /// team so nested regions cannot corrupt an outer region's child counts.
  std::vector<TaskContext> implicit_ctx_;

  TaskPool tasks_;

  ReductionTree reduce_tree_;

  /// Master sequence counters persisted across hot-team reuses (see rearm).
  u64 master_ws_seq_ = 0;
  u64 master_single_seq_ = 0;
  u64 master_red_seq_ = 0;

  alignas(kCacheLine) std::atomic<i32> checked_out_{0};
};

static_assert(alignof(Team) >= 2 * kCacheLine);

}  // namespace zomp::rt
