// Persistent worker-thread pool and the fork/join entry point.
//
// Fork semantics mirror libomp's __kmpc_fork_call, the entry point the
// paper's outlined Zig regions target: the encountering ("master") thread
// recruits workers, every member runs the outlined microtask, an implicit
// task-draining barrier joins the team, and the workers return to the pool.
//
// Region entry is the runtime's fast path (DESIGN.md S1.6). Three mechanisms
// keep it that way:
//
//  * Hot-team cache — each master keeps a small per-level array of recent
//    Teams (and their workers, still bound) on its ThreadState, keyed on
//    (nesting level, num_threads request, binding signature). A fork
//    matching an entry re-arms that team in place (no allocation, no pool
//    traffic, no re-binding syscalls); misses evict the least-recently-used
//    entry, so programs alternating between two region shapes — and nested
//    masters inside recycled outer teams — keep their teams hot.
//  * Doorbell handoff — a bound worker parks on a per-worker atomic doorbell
//    between regions, so waking a hot team is one plain store + one release
//    store per worker, not a mutex/condvar round-trip. The doorbell spins
//    under the active wait policy (OMP_WAIT_POLICY, common.h Backoff) and
//    falls back to a condvar park after a bounded grace period — immediately
//    under the passive policy.
//  * Lock-free idle list — cold acquires and nested forks pop workers from a
//    tagged-index Treiber stack instead of serialising on the pool mutex;
//    the mutex now guards only thread spawning and `spawned()`.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/ident.h"
#include "runtime/team.h"

namespace zomp::rt {

/// Outlined parallel-region entry point: generated code receives its global
/// thread id, its id within the team, and the shared-variable pointer array
/// captured by the directive engine.
using Microtask = void (*)(i32 gtid, i32 tid, void** args);

struct ForkOptions {
  /// Team size request (num_threads clause); 0 defers to pushed/ICV values.
  i32 num_threads = 0;
  /// `if` clause: false serialises the region (team of one).
  bool if_clause = true;
  /// proc_bind clause; kUnset defers to the pushed one-shot, then to the
  /// bind-var list (OMP_PROC_BIND) at this environment's nesting level.
  BindKind proc_bind = BindKind::kUnset;
  SourceIdent ident{};
};

/// Runs `fn` on a new team. Blocks until every member has finished and
/// passed the join barrier (all explicit tasks included). Reentrant: calling
/// from inside a region forks a nested team subject to max-active-levels.
void fork_call(Microtask fn, void** args, const ForkOptions& opts = {});

/// Zero-erasure fork for C++ callers on the hot path: the callable rides in
/// the microtask argument array directly (no std::function construction, so
/// a capture-heavy body never heap-allocates per region). `body` must stay
/// alive until fork_body returns, which the join barrier guarantees.
template <typename Body>
void fork_body(Body&& body, const ForkOptions& opts = {}) {
  using B = std::remove_reference_t<Body>;
  void* args[1] = {const_cast<void*>(static_cast<const void*>(&body))};
  fork_call(
      [](i32 /*gtid*/, i32 /*tid*/, void** a) { (*static_cast<B*>(a[0]))(); },
      args, opts);
}

/// One pooled OS thread. Parked on an atomic doorbell between regions: the
/// assigning master publishes the job fields with plain stores, then rings
/// the doorbell with one release store; the worker spins (wait-policy
/// bounded), then condvar-parks. See DESIGN.md S1.6 for the full protocol,
/// including the store-load fence that keeps the park race-free.
class Worker {
 public:
  Worker(i32 gtid, i32 pool_index);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Hands the worker a microtask for team `team`, member `tid`. The caller
  /// must hold the worker exclusively (fresh from Pool::acquire or bound to
  /// the caller's hot team) and must have observed the worker's check_out
  /// from its previous region — that is what orders the plain job stores
  /// here against the worker's reads.
  void assign(Team* team, i32 tid, Microtask fn, void** args);

  ThreadState& state() { return state_; }
  i32 pool_index() const { return pool_index_; }

  /// Treiber-stack link, managed by Pool: index of the next idle worker
  /// (-1 = end). Only meaningful while this worker sits on the idle stack.
  std::atomic<i32> next_idle{-1};

 private:
  struct Job {
    Team* team = nullptr;
    i32 tid = 0;
    Microtask fn = nullptr;
    void** args = nullptr;
  };

  void loop();
  /// Blocks until the doorbell moves past `last_seen`; returns the new value.
  u64 wait_doorbell(u64 last_seen);
  /// Bumps the doorbell and wakes the worker if it condvar-parked.
  void ring();

  /// Written by the assigning master before the doorbell ring; read by the
  /// worker after the matching acquire. Plain fields on purpose — the
  /// doorbell release/acquire pair is the only synchronisation they need.
  Job job_{};

  alignas(kCacheLine) std::atomic<u64> doorbell_{0};
  /// Doorbell value of the last job this worker copied out of job_. The
  /// assigning master checks it equals the doorbell before overwriting
  /// job_ (the mailbox busy invariant); by the assign precondition the
  /// worker's relaxed store is already ordered before the check through
  /// check_out/wait_all_checked_out.
  std::atomic<u64> jobs_consumed_{0};
  /// Set (seq_cst) by the worker before it condvar-parks; checked (seq_cst)
  /// by ring() after the doorbell store. The two seq_cst accesses form the
  /// store-load fence of the classic sleeper handshake: at least one side
  /// observes the other, so a ring is never lost.
  std::atomic<bool> parked_{false};
  std::atomic<bool> shutdown_{false};

  std::mutex mutex_;  ///< parking only; never touched on the spin path
  std::condition_variable cv_;

  ThreadState state_;
  i32 pool_index_ = 0;
  std::thread thread_;  // last member: starts after state_ is ready
};

/// Process-wide worker pool. Threads are spawned lazily up to the thread
/// limit and live until process exit. The idle list is a lock-free
/// tagged-index Treiber stack; the mutex guards only spawning, so
/// `spawned()` and shutdown stay exact while concurrent masters acquire and
/// release without serialising.
class Pool {
 public:
  /// Hard cap on pooled workers (the idle stack indexes workers with 32-bit
  /// tagged handles). The thread limit ICV is clamped against it.
  static constexpr i32 kMaxWorkers = 1024;

  static Pool& instance();

  /// Pops up to `want` idle workers, spawning new ones while the global
  /// thread limit allows. May return fewer under contention or at the limit;
  /// the caller must size its team from what it actually received.
  std::vector<Worker*> acquire(i32 want);

  /// Returns workers to the idle list. Called by the master after the join
  /// barrier (or when a hot team is dismissed), so reacquisition is
  /// deterministic for back-to-back regions.
  void release(const std::vector<Worker*>& workers);

  /// Total workers ever spawned (for tests/telemetry). Exact.
  i32 spawned() const;

  /// True once the pool's destructor has started. ~ThreadState consults this
  /// before releasing a dying master's cached hot-team workers: during
  /// teardown some of those Worker objects may already be destroyed, and
  /// pushing them back onto the idle stack would touch freed memory.
  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

 private:
  Pool() = default;
  ~Pool();

  Worker* pop_idle();
  void push_idle(Worker* w);

  /// Idle-stack head: (tag << 32) | (pool_index + 1); 0 = empty. The tag
  /// increments on every successful CAS, which defeats ABA on the index.
  alignas(kCacheLine) std::atomic<u64> idle_head_{0};

  /// Index -> worker, written once (release) when the worker is spawned.
  /// Fixed-size so idle-stack readers never race a growing container.
  std::atomic<Worker*> registry_[kMaxWorkers] = {};

  mutable std::mutex mutex_;  ///< spawn path + spawned() only
  std::vector<std::unique_ptr<Worker>> all_;
  std::atomic<bool> shutting_down_{false};
};

}  // namespace zomp::rt
