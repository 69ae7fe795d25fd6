// Explicit tasking (OpenMP `task` with `depend`, `taskwait`, `taskgroup`,
// `taskloop`).
//
// The paper lists tasking as future work for the Zig port; we implement it as
// the documented extension so the runtime covers the OpenMP feature families
// a downstream user expects. Scheduling model (DESIGN.md S1.3/S1.7): one
// bounded lock-free work-stealing deque per team member — the owner pushes
// and pops its back end LIFO with plain release/acquire atomics, thieves take
// the front end FIFO with a CAS — plus a team-wide outstanding-task count
// that the task-aware barrier drains, and parent/child counting for
// `taskwait` with group counting for `taskgroup`.
//
// Dependence layer (DESIGN.md S1.7): tasks created with `depend(in/out/inout:
// addr)` clauses get a refcounted DepNode with an atomic predecessor count.
// Edges are computed at creation time against a per-parent hash table keyed
// on the depend addresses (last-writer edge for out/inout, reader-set edges
// for in) — creation of siblings is serialised by the parent task, so the
// table itself needs no lock; only per-node state is concurrent. A task whose
// count is still non-zero at creation parks on its node instead of entering
// a deque; completing predecessors release it. Tasks with no depend clauses
// never allocate a node and take the original deque fast path untouched.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/common.h"

namespace zomp::rt {

class Counters;
struct Task;

struct TaskGroup {
  std::atomic<i64> active{0};
  TaskGroup* parent = nullptr;
  /// `cancel taskgroup` flag. Once set, every not-yet-started task of this
  /// group (and of descendant groups — execute_task walks the parent chain)
  /// is discarded at its scheduling point: the body is skipped but all
  /// parent/group/outstanding accounting still runs, so waiters drain
  /// normally. Tasks already executing run to completion, per the spec.
  std::atomic<bool> cancelled{false};
};

/// One dependence of a task: a storage address plus the access mode of the
/// depend clause. `in` orders against the last writer; `out`/`inout` order
/// against the last writer and every reader since it.
enum class DepKind : std::uint8_t { kIn = 1, kOut = 2, kInout = 3 };

struct DepSpec {
  void* addr = nullptr;
  DepKind kind = DepKind::kInout;
};

/// Dependence-graph node of one task (libomp's kmp_depnode analogue).
/// Shared-ptr managed: referenced by the parent's dependence table (as last
/// writer / reader), by predecessor successor-lists, and by the task itself,
/// so a completed task's node stays valid for edges that later siblings
/// still draw against it.
///
/// Lifecycle: the creator starts `npredecessors` at 1 (the creation
/// reference) so a predecessor finishing mid-registration cannot release the
/// task early; each edge adds 1 under the predecessor's lock (skipped when
/// the predecessor is already `done`). After registering every edge the
/// creator drops the creation reference; whoever decrements the count to
/// zero — creator or last-finishing predecessor — owns the parked task and
/// enqueues it.
struct DepNode {
  std::atomic<i32> npredecessors{1};
  /// The parked task awaiting release; null before parking, and consumed
  /// (exactly once, by the zero-decrementer) on release. Undeferred tasks
  /// never park: the encountering thread spins the count down and runs the
  /// body inline, leaving this null throughout.
  Task* task = nullptr;
  /// Guards `done` + `successors` against the completion/registration race:
  /// a predecessor may finish while the parent is still drawing edges to it.
  std::mutex mu;
  bool done = false;
  std::vector<std::shared_ptr<DepNode>> successors;
};

/// Per-address dependence state in a parent's table: the node of the last
/// out/inout task and the in-tasks that read since.
struct DepEntry {
  std::shared_ptr<DepNode> last_out;
  std::vector<std::shared_ptr<DepNode>> readers;
};

/// Hash table mapping depend addresses to their dependence state. Only ever
/// touched by the thread executing the owning (parent) task — sibling
/// creation is serialised by the parent — so it is deliberately unlocked.
/// Sized lazily (see TaskContext::dep_table): the zero-dependence path never
/// allocates it, and taskwait clears it once all children (hence all
/// registered nodes) are complete, so it tracks the live wavefront rather
/// than the whole task history.
using DepTable = std::unordered_map<const void*, DepEntry>;

/// Execution context shared by implicit tasks (one per team member) and
/// explicit tasks. Tracks outstanding children for taskwait, the innermost
/// live taskgroup, the final-task flag (descendants of a final task execute
/// undeferred, the "included task" model), and the dependence table for the
/// depend clauses of child tasks.
struct TaskContext {
  std::atomic<i64> children{0};
  TaskGroup* group = nullptr;
  bool in_final = false;
  std::unique_ptr<DepTable> deps;

  /// Initial bucket reservation for a lazily-created dependence table —
  /// enough for the typical wavefront (a few live blocks per parent)
  /// without rehash, small enough that a single depend-bearing task stays
  /// cheap.
  static constexpr std::size_t kDepTableReserve = 16;

  DepTable& dep_table() {
    if (!deps) {
      deps = std::make_unique<DepTable>();
      deps->reserve(kDepTableReserve);
    }
    return *deps;
  }
};

struct Task {
  std::function<void()> body;
  TaskContext ctx;           ///< context for code running inside this task
  TaskContext* parent = nullptr;
  TaskGroup* group = nullptr;
  /// priority(n) hint. Recorded but not yet honoured by the work-stealing
  /// deques (a Chase–Lev deque has no cheap priority order); documented in
  /// DESIGN.md S1.7.
  i32 priority = 0;
  /// Dependence node, only for tasks created with depend clauses. Keeps the
  /// node alive until the task completes and releases its successors.
  std::shared_ptr<DepNode> depnode;
};

/// Creation-time options for Team::task_create_ex. Plain task_create remains
/// the zero-dependence fast path.
struct TaskOpts {
  const DepSpec* deps = nullptr;
  i32 ndeps = 0;
  /// `if` clause: false executes undeferred at the creation point (after
  /// dependences are satisfied).
  bool deferred = true;
  /// final(expr): true makes this task and every descendant undeferred
  /// (included-task model; see task.h header comment).
  bool final = false;
  /// untied is accepted and recorded as a no-op: zomp tasks run to
  /// completion on one thread without suspension, so every task trivially
  /// satisfies tied-task scheduling constraints.
  bool untied = false;
  i32 priority = 0;
};

/// Bounded lock-free work-stealing deque (Chase–Lev, in the fence-free
/// formulation of Lê et al. 2013 with the standalone fences strengthened to
/// seq_cst accesses so ThreadSanitizer can reason about the algorithm).
///
/// Single owner, many thieves. The owner pushes/pops `bottom` (LIFO); thieves
/// race on `top` with a CAS (FIFO). Slots are atomic pointers: a stale thief
/// may read a slot the owner is simultaneously recycling, but it then always
/// fails its CAS and discards the value, so the race is benign and — because
/// the slot itself is atomic — well-defined.
///
/// Memory-ordering notes (DESIGN.md S1):
///  * push: slot store may be relaxed; the release store of `bottom`
///    publishes it to any thief that acquires `bottom` afterwards.
///  * pop: the decremented `bottom` must be globally visible before reading
///    `top` (the classic SC store→load edge), hence seq_cst on both.
///  * steal: `top` read / `bottom` read need the mirror-image SC edge, and
///    the CAS on `top` decides the owner-vs-thief race for the last element.
class WorkStealingDeque {
 public:
  /// Capacity is fixed (bounded deque): overflow is handled by the caller
  /// executing the task inline, the same safety valve libomp uses when its
  /// task queue fills. 1024 tasks × 8 bytes = 8 KiB per member.
  static constexpr i64 kCapacity = 1024;

  /// Owner only. False when the deque is full (caller runs the task inline).
  bool push(Task* task) {
    const i64 b = bottom_.load(std::memory_order_relaxed);
    const i64 t = top_.load(std::memory_order_acquire);
    if (b - t >= kCapacity) return false;
    slots_[static_cast<std::size_t>(b & kMask)].store(
        task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only. LIFO: newest task, for locality. Null when empty.
  Task* pop() {
    const i64 b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    i64 t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Deque was empty; undo the reservation.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* task =
        slots_[static_cast<std::size_t>(b & kMask)].load(std::memory_order_relaxed);
    if (t == b) {
      // Last element: race the thieves for it via `top`.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  /// Any thread. FIFO: oldest task, maximising the stolen subtree. Null when
  /// empty or when the CAS race is lost (caller just tries the next victim).
  /// `lost`, when non-null, is set to true on a lost CAS — the convoying
  /// telemetry the staggered victim scan is measured by (DESIGN.md S1.9).
  Task* steal(bool* lost = nullptr) {
    i64 t = top_.load(std::memory_order_seq_cst);
    const i64 b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Task* task =
        slots_[static_cast<std::size_t>(t & kMask)].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      if (lost != nullptr) *lost = true;
      return nullptr;
    }
    return task;
  }

  /// Advisory emptiness probe for the victim scan. Acquire loads, `top`
  /// first, so the (monotonically growing) `bottom` read is the fresher of
  /// the pair and a push published on another core flips the answer
  /// promptly. Still only a hint: a push racing mid-publication may be
  /// missed for one scan, so take() returning null NEVER means "no work" —
  /// every drain loop must re-check the pool-level queued() counter (the
  /// barrier/taskwait/taskgroup loops in team.cpp do exactly that).
  bool maybe_empty() const {
    const i64 t = top_.load(std::memory_order_acquire);
    return t >= bottom_.load(std::memory_order_acquire);
  }

 private:
  static constexpr i64 kMask = kCapacity - 1;
  static_assert((kCapacity & kMask) == 0, "capacity must be a power of two");

  alignas(kCacheLine) std::atomic<i64> top_{0};
  alignas(kCacheLine) std::atomic<i64> bottom_{0};
  std::array<std::atomic<Task*>, kCapacity> slots_{};
};

/// Per-team task queues: one work-stealing deque per member, plus one
/// mutex-guarded *mailbox* per member for tasks another member aims at it
/// (the Chase–Lev deque is owner-push-only, so cross-member placement —
/// place-aware taskloop spraying — needs a side channel). Victim selection
/// in take() is locality-aware when the team installed a victim-order table
/// (hierarchical: same place, then same core/socket, then anywhere), and a
/// staggered flat ring otherwise.
class TaskPool {
 public:
  explicit TaskPool(i32 members);

  /// Drains and frees any tasks still parked in the deques or mailboxes
  /// (both hold raw pointers, so teardown must reclaim them explicitly).
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task` on member `tid`'s deque. Caller has already linked the
  /// task into its parent/group counts. Returns null on success; returns the
  /// task back when the bounded deque is full, in which case the caller MUST
  /// execute it inline (without touching the outstanding count) — dropping
  /// the rejected task would strand its parent/group counters forever.
  [[nodiscard]] std::unique_ptr<Task> push(i32 tid, std::unique_ptr<Task> task);

  /// Enqueues `task` on member `target`'s mailbox — the cross-member
  /// placement path. Unbounded, so unlike push() it never rejects. The task
  /// is stealable like any queued task: take() scans victims' mailboxes as
  /// well as their deques, so a task mailed to a member that never becomes
  /// idle cannot strand a taskgroup/taskwait/barrier waiter.
  void push_remote(i32 target, std::unique_ptr<Task> task);

  /// Pops from `tid`'s own deque (LIFO), then its own mailbox, then steals
  /// from siblings — nearest-first per the installed victim order, or a
  /// per-member staggered ring when there is none. Returns nullptr if no
  /// task is available right now; see maybe_empty() for why callers must
  /// re-check queued() before treating that as "pool dry". Steal and
  /// mailbox traffic is counted on `counters`, the calling thread's block.
  std::unique_ptr<Task> take(i32 tid, Counters& counters);

  /// Installs the hierarchical steal-victim order: row `tid` holds member
  /// tid's n-1 victims, nearest first (flattened n x (n-1)). Built by the
  /// team from its binding plan and scheduling_topology() at fork time
  /// (master-only, while the team is quiescent); empty reverts take() to
  /// the staggered flat ring.
  void set_victim_order(std::vector<i32> order);
  const std::vector<i32>& victim_order() const { return victim_order_; }

  /// Tasks queued but not yet finished executing (includes tasks currently
  /// running a body). Gates the barrier's drain: zero means every published
  /// task fully completed.
  i64 outstanding() const { return outstanding_.load(std::memory_order_acquire); }

  /// Tasks sitting in a deque right now — stealable work, excluding tasks
  /// already executing. This is the join-barrier waiters' help gate and
  /// WaitGate park predicate (team.cpp): a waiter must NOT burn a core while
  /// one long task runs elsewhere with nothing to steal, but must wake when
  /// new work lands. seq_cst load on purpose: the park protocol's
  /// lost-wakeup argument (barrier.h) needs the gating state read in the
  /// seq_cst total order (same cost as acquire on x86). May transiently
  /// over-count (push increments before publishing) — a spurious wake, never
  /// a missed one: a task still in a deque always keeps this >= 1.
  i64 queued() const { return queued_.load(std::memory_order_seq_cst); }

  /// Called by the executor once a queued task's body has fully completed.
  void mark_finished() { outstanding_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  /// One member's mailbox. The atomic count lets the victim scan skip empty
  /// mailboxes without taking the lock; like maybe_empty() it is advisory
  /// (queued() is the authoritative re-check).
  struct Mailbox {
    std::mutex mu;
    std::deque<Task*> tasks;
    std::atomic<i32> count{0};
  };

  /// Pops the oldest mailed task from `member`'s mailbox; null when empty.
  Task* mailbox_pop(i32 member);

  // Each deque/mailbox heap-allocated so neighbouring members' hot words
  // never share a line regardless of vector layout.
  std::vector<std::unique_ptr<WorkStealingDeque>> queues_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Flattened n x (n-1) victim-order table; empty = staggered flat ring.
  std::vector<i32> victim_order_;
  alignas(kCacheLine) std::atomic<i64> outstanding_{0};
  alignas(kCacheLine) std::atomic<i64> queued_{0};
};

}  // namespace zomp::rt
