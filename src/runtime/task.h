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
// addr)` clauses get a DepNode with its own reference count and an atomic
// predecessor count. Edges are computed at creation time against a
// per-parent hash table keyed on the depend addresses (last-writer edge for
// out/inout, reader-set edges for in) — creation of siblings is serialised
// by the parent task, so the table itself needs no lock; only per-node state
// is concurrent. A task whose count is still non-zero at creation parks on
// its node instead of entering a deque; completing predecessors release it.
// Tasks with no depend clauses never allocate a node and take the original
// deque fast path untouched.
//
// Allocation (DESIGN.md S1.7): creating a task calls no allocator. Task and
// DepNode live in fixed-size blocks from per-thread pools (block_alloc); a
// block freed on another thread returns to the thread that allocated it. The
// body is constructed in place inside the Task block (TaskBody), and a
// node's first successors fit in inline slots.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/common.h"

namespace zomp::rt {

class Counters;
struct Task;

// -- Block pool ---------------------------------------------------------------
//
// Task and DepNode allocate through class-level operator new/delete from
// per-thread pools of fixed-size blocks (LLVM libomp recycles its task
// descriptors the same way), and the dependence layer's containers grow
// from power-of-two array blocks of the same pools (PoolAllocator). Each
// block carries a one-word header naming its owner, the thread that carved
// it. The owner frees onto its local list; any other thread CAS-pushes the
// block onto the owner's return stack, which the owner takes whole with one
// exchange when its local list runs dry. Other threads only push and the
// owner only takes everything, so the stack has no ABA problem. A thread's
// lists live in a never-freed registry: a block returned after its owner
// exited stays valid, and the next thread to start adopts the exited
// thread's lists, blocks included.

/// Block sizes: one per pooled type, then the array classes — 16 bytes
/// doubling up to kMaxPooledArray.
enum class BlockKind : u32 { kTask = 0, kDepNode = 1, kFirstArray = 2 };
inline constexpr std::size_t kMaxPooledArray = 4096;
inline constexpr std::size_t kBlockKinds = 2 + 9;  // 16 B .. 4 KiB

/// A block for one `kind` object, from the calling thread's pool.
void* block_alloc(BlockKind kind);
/// Returns a block from block_alloc to its owner's pool; any thread.
void block_free(BlockKind kind, void* block) noexcept;

/// `bytes` of max-aligned storage: a pooled block of the smallest array
/// class that fits, or the global allocator past kMaxPooledArray.
void* array_alloc(std::size_t bytes);
/// Frees array_alloc storage; `bytes` must match the request. Any thread.
void array_free(void* p, std::size_t bytes) noexcept;

/// Standard allocator over array_alloc, so a container that grows while
/// tasks are created (a node's spilled successors, the dependence table and
/// its reader lists) recycles pooled blocks instead of calling malloc.
template <typename T>
struct PoolAllocator {
  static_assert(alignof(T) <= alignof(std::max_align_t));
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT: rebind

  T* allocate(std::size_t n) {
    return static_cast<T*>(array_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { array_free(p, n * sizeof(T)); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

// -- Task bodies ----------------------------------------------------------------

/// A task's body, stored in place: kInlineBytes of storage inside the Task
/// block plus an invoke hook and a destroy hook. A callable that fits is
/// constructed straight into the storage. A larger one gets one heap box,
/// placed the same way (the storage then holds the box's pointer).
class TaskBody {
 public:
  /// Inline capacity. The largest generated firstprivate pack is 40 bytes
  /// (taskgraph's update task); the C ABI stores it beside its function
  /// pointer.
  static constexpr std::size_t kInlineBytes = 64;

  TaskBody() = default;
  TaskBody(const TaskBody&) = delete;
  TaskBody& operator=(const TaskBody&) = delete;
  ~TaskBody() { reset(); }

  /// Replaces the body with `f` (tests and benches assign lambdas).
  template <typename F>
  TaskBody& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  /// Constructs `f` in place: inline when it fits, else in one heap box.
  /// The body must be empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      place<Fn>(std::forward<F>(f));
    } else {
      place<Boxed<Fn>>(Boxed<Fn>{std::make_unique<Fn>(std::forward<F>(f))});
    }
  }

  /// The C ABI's body: `fn` runs on a private copy of the `size`-byte
  /// firstprivate pack at `arg`, taken now. The body must be empty.
  void emplace_pack(void (*fn)(void*), const void* arg, std::size_t size);

  void operator()() { invoke_(storage_); }

  /// Destroys the callable (its captures) now. Idempotent.
  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  template <typename Fn>
  struct Boxed {
    std::unique_ptr<Fn> fn;
    void operator()() { (*fn)(); }
  };

  template <typename Fn, typename F>
  void place(F&& f) {
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s) { std::invoke(*static_cast<Fn*>(s)); };
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      destroy_ = [](void* s) { static_cast<Fn*>(s)->~Fn(); };
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// A body its creator has not placed yet. Team's task creation places it
/// exactly once: straight into the Task block, or into a stack TaskBody
/// when the task runs at its creation point. Implicit from any callable,
/// which it references (an lvalue is copied when placed, an rvalue moved),
/// so it is valid only within the full expression that made it.
class TaskBodyRef {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, TaskBodyRef>>>
  TaskBodyRef(F&& f)  // NOLINT(google-explicit-constructor): by design
      : place_([](void* callable, TaskBody& dst) {
          dst.emplace(std::forward<F>(
              *static_cast<std::remove_reference_t<F>*>(callable)));
        }),
        ctx_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))) {}

  /// Custom placement: `place(ctx, dst)` constructs the body in `dst` (the
  /// C ABI's firstprivate pack).
  TaskBodyRef(void (*place)(void* ctx, TaskBody& dst), void* ctx)
      : place_(place), ctx_(ctx) {}

  void place_into(TaskBody& dst) const { place_(ctx_, dst); }

 private:
  void (*place_)(void*, TaskBody&);
  void* ctx_;
};

// -- Dependences ----------------------------------------------------------------

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

/// Dependence-graph node of one task (libomp's kmp_depnode analogue),
/// pooled like Task. Intrusively reference-counted: the task holds one
/// reference (an undeferred task's creator holds it instead), and so does
/// each slot of the parent's dependence table that names the node — its
/// last writer or one of its readers — so a completed task's node stays
/// valid for edges that later siblings still draw against it.
///
/// Lifecycle: the creator starts `npredecessors` at 1 (the creation
/// reference) so a predecessor finishing mid-registration cannot release the
/// task early; each edge adds 1 under the predecessor's lock (skipped when
/// the predecessor is already `done`). After registering every edge the
/// creator drops the creation reference; whoever decrements the count to
/// zero — creator or last-finishing predecessor — owns the parked task and
/// enqueues it.
///
/// Successor slots hold no reference: a successor cannot finish (nor its
/// node die) before this node's completion decrements its count, and after
/// that decrement the completer touches it only if it was the last one —
/// when the successor's parked task still holds its node.
struct DepNode {
  static void* operator new(std::size_t) { return block_alloc(BlockKind::kDepNode); }
  static void operator delete(void* p) noexcept {
    block_free(BlockKind::kDepNode, p);
  }

  /// Successors that fit in the node; the rest spill to more_successors.
  static constexpr i32 kInlineSuccessors = 4;

  std::atomic<i32> npredecessors{1};
  /// References; the node frees itself when the last one is released.
  std::atomic<i32> refs{1};
  /// The parked task awaiting release; null before parking, and consumed
  /// (exactly once, by the zero-decrementer) on release. Undeferred tasks
  /// never park: the encountering thread spins the count down and runs the
  /// body inline, leaving this null throughout.
  Task* task = nullptr;
  /// Guards the successor list against the completion/registration race: a
  /// predecessor may finish while the parent is still drawing edges to it.
  std::mutex mu;
  /// Set under `mu` once the task completed; later siblings skip the edge.
  /// Also read without the lock (acquire), by the creator pruning finished
  /// nodes from its table.
  std::atomic<bool> done{false};
  i32 nsuccessors = 0;
  DepNode* successors[kInlineSuccessors] = {};
  PoolVector<DepNode*> more_successors;

  /// Appends an edge; caller holds `mu` and saw `done` false.
  void add_successor(DepNode* succ) {
    if (nsuccessors < kInlineSuccessors) {
      successors[nsuccessors] = succ;
    } else {
      more_successors.push_back(succ);
    }
    ++nsuccessors;
  }

  bool finished() const { return done.load(std::memory_order_acquire); }
};

/// Owning reference to a DepNode (intrusive, no control block).
class NodeRef {
 public:
  NodeRef() = default;
  /// A fresh node; the reference adopts its initial count.
  static NodeRef make() { return NodeRef(new DepNode()); }

  NodeRef(const NodeRef& other) : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  NodeRef(NodeRef&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  NodeRef& operator=(NodeRef other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~NodeRef() { reset(); }

  void reset() noexcept {
    DepNode* node = std::exchange(node_, nullptr);
    if (node != nullptr &&
        node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node;
    }
  }

  DepNode* get() const { return node_; }
  DepNode* operator->() const { return node_; }
  DepNode& operator*() const { return *node_; }
  explicit operator bool() const { return node_ != nullptr; }

 private:
  explicit NodeRef(DepNode* node) : node_(node) {}
  DepNode* node_ = nullptr;
};

/// Per-address dependence state in a parent's table: the node of the last
/// out/inout task and the in-tasks that read since. Finished nodes are
/// pruned as the creator goes (a finished writer when the entry is touched,
/// finished readers when the reader list fills up), so the entry holds the
/// live wavefront rather than every reader since the last writer.
struct DepEntry {
  NodeRef last_out;
  PoolVector<NodeRef> readers;

  /// Drops last_out once its task finished: it imposes no edge any more.
  void drop_finished_writer() {
    if (last_out && last_out->finished()) last_out.reset();
  }

  /// Appends a reader. A full list first drops its finished readers, and
  /// grows anyway when that frees less than half of it, so each append
  /// costs amortised O(1).
  void add_reader(NodeRef node);
};

/// Hash table mapping depend addresses to their dependence state. Only ever
/// touched by the thread executing the owning (parent) task — sibling
/// creation is serialised by the parent — so it is deliberately unlocked.
/// Sized lazily (see TaskContext::dep_table): the zero-dependence path never
/// allocates it. Between synchronisation points its entries hold only
/// unfinished nodes plus a bounded tail of finished ones (DepEntry pruning);
/// taskwait and full barriers retire the whole table once every child is
/// complete.
using DepTable =
    std::unordered_map<const void*, DepEntry, std::hash<const void*>,
                       std::equal_to<const void*>,
                       PoolAllocator<std::pair<const void* const, DepEntry>>>;

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
  static void* operator new(std::size_t) { return block_alloc(BlockKind::kTask); }
  static void operator delete(void* p) noexcept {
    block_free(BlockKind::kTask, p);
  }

  TaskBody body;
  TaskContext ctx;           ///< context for code running inside this task
  TaskContext* parent = nullptr;
  TaskGroup* group = nullptr;
  /// priority(n) hint. Recorded but not yet honoured by the work-stealing
  /// deques (a Chase–Lev deque has no cheap priority order); documented in
  /// DESIGN.md S1.7.
  i32 priority = 0;
  /// Dependence node, only for tasks created with depend clauses. Keeps the
  /// node alive until the task completes and releases its successors.
  NodeRef depnode;
};

/// Depend clauses a task creation handles without allocating (the C ABI's
/// DepSpec copy, Team's duplicate-address merge); more take one heap array.
inline constexpr std::size_t kStackDeps = 8;

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
  /// telemetry the staggered victim scan is measured by (S12 counters).
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

/// Per-team task queues: one work-stealing deque per member. A member pushes
/// only onto its own deque; take() pops its own deque, then steals from the
/// others around a ring whose start is staggered per member.
class TaskPool {
 public:
  explicit TaskPool(i32 members);

  /// Drains and frees any tasks still parked in the deques (their slots hold
  /// raw pointers, so teardown must reclaim them explicitly).
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task` on member `tid`'s deque. Caller has already linked the
  /// task into its parent/group counts. Returns null on success; returns the
  /// task back when the bounded deque is full, in which case the caller MUST
  /// execute it inline (without touching the outstanding count) — dropping
  /// the rejected task would strand its parent/group counters forever.
  /// `was_empty`, when non-null, is set to whether this push took queued()
  /// from 0 to 1: the one transition that wakes a parked waiter.
  [[nodiscard]] std::unique_ptr<Task> push(i32 tid, std::unique_ptr<Task> task,
                                           bool* was_empty = nullptr);

  /// Pops from `tid`'s own deque (LIFO), then steals from siblings around a
  /// per-member staggered ring. Returns nullptr if no task is available
  /// right now; see maybe_empty() for why callers must re-check queued()
  /// before treating that as "pool dry". Steal traffic is counted on
  /// `counters`, the calling thread's block.
  std::unique_ptr<Task> take(i32 tid, Counters& counters);

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
  // Each deque heap-allocated so neighbouring members' hot words never share
  // a line regardless of vector layout.
  std::vector<std::unique_ptr<WorkStealingDeque>> queues_;
  alignas(kCacheLine) std::atomic<i64> outstanding_{0};
  alignas(kCacheLine) std::atomic<i64> queued_{0};
};

}  // namespace zomp::rt
