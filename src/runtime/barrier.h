// Wait primitives under the team protocols. The team barrier itself is
// Team::barrier_wait / join_barrier_wait (team.cpp); both wait with the
// spin-then-yield Backoff (common.h) governed by OMP_WAIT_POLICY.
//
// WaitGate is the condvar-park annex for the runtime's epoch-style waits
// (today: the team join barrier, team.cpp). It packages the PR 3 doorbell
// park handshake — seq_cst parked flag against seq_cst state publication,
// with the empty-critical-section notify — so a waiter that has burned its
// spin/yield grace can leave the run queue entirely instead of yielding
// forever through a long serial phase.
//
// PhaseSync is the cross-member phase rendezvous behind the zomp::algo
// primitives (DESIGN.md S11): one epoch-tagged slot per member, each carrying
// an optional cache-line payload, lets multi-phase team algorithms (the
// decoupled scan, radix-sort pass pipeline) wait on *individual* members'
// progress instead of full barriers — member t of a scan only waits for
// member t-1's prefix, so later phases overlap across the team.
#pragma once

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <vector>

#include "runtime/common.h"

namespace zomp::rt {

/// Lost-wakeup-free condvar park for spin loops that already have a cheap
/// wake predicate. Protocol (mirrors the worker doorbell, DESIGN.md S1.6):
///
///  * Waiter: after its spin/yield grace expires, calls park(pred). The gate
///    bumps `parked_` with a seq_cst RMW, then re-checks `pred` under the
///    mutex before sleeping.
///  * Waker: performs the store that makes `pred` true with seq_cst order,
///    then calls wake_all(). The seq_cst load of `parked_` forms the classic
///    store-load fence against the waiter's seq_cst RMW: if the waker reads
///    parked_ == 0, the waiter's increment — and therefore its in-mutex
///    re-check of `pred` — comes later in the seq_cst total order and must
///    observe the state change; otherwise the waker takes the (empty) mutex
///    critical section and notifies, which cannot slip between the waiter's
///    re-check and its sleep.
///
/// `pred` must read the gating state with seq_cst loads for the total-order
/// argument above to hold.
class WaitGate {
 public:
  template <typename Pred>
  void park(Pred&& pred) {
    parked_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return pred(); });
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Cheap when nobody parked: one seq_cst load, no lock.
  void wake_all() {
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    // Empty critical section: orders the notify after any parker is actually
    // inside cv_.wait (it holds the mutex until it sleeps).
    { const std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

  /// Like wake_all, but wakes one waiter: for a state change that one
  /// waiter can act on (a task landing in an empty queue). Every predicate
  /// parked here must be made true by such a change, or the one wake may go
  /// to a waiter that re-parks while another stays asleep.
  void wake_one() {
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    { const std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_one();
  }

 private:
  alignas(kCacheLine) std::atomic<i32> parked_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Cross-member phase synchronisation for multi-phase team algorithms
/// (zomp::algo, DESIGN.md S11). One cache-line slot per member holds an
/// epoch token (the highest phase the member has published) and an optional
/// inline payload published with it. Unlike a barrier, waiting is directed:
/// an awaiter names the member and phase it needs, so a pipeline of phases
/// overlaps — the decoupled scan's member t starts its scan-and-add pass as
/// soon as member t-1 published its prefix, while t+1.. are still reducing.
///
/// Phase numbering contract (the same identity argument as the
/// ReductionTree's construct sequence, reduce.h):
///  * Every member publishes phases with STRICTLY INCREASING tokens, and all
///    members pass through the same phase points in the same order, so a
///    phase number is a team-wide identity. The runtime drives the numbers
///    from ThreadState::phase_seq, which is monotonic *across regions* —
///    Team::rearm carries it forward exactly like red_seq — so a recycled
///    hot team needs no reset: stale tokens are always strictly smaller than
///    any later phase's number.
///  * await() returns once the member's token reaches *or passes* `seq`. A
///    slot's payload is only valid for its CURRENT token, so a phase whose
///    payload matters must not be republished until every awaiter is done
///    reading — algorithms guarantee this with a later payload-less phase or
///    the region's join barrier (the zomp::algo constructs fork their own
///    region per call, so the join fences slot reuse structurally).
///  * Abandonment mirrors the PR 8 cancellable barriers: waits poll an
///    optional cancel word and bail (returning false) when any `mask` bit is
///    set, so a `cancel parallel` can call a whole algorithm off without
///    stranding awaiters on members that will never publish again.
class PhaseSync {
 public:
  /// Inline payload capacity: token + data fill exactly one cache line.
  static constexpr std::size_t kSlotBytes =
      kCacheLine - sizeof(std::atomic<u64>);

  explicit PhaseSync(i32 n);

  PhaseSync(const PhaseSync&) = delete;
  PhaseSync& operator=(const PhaseSync&) = delete;

  /// Publishes `member`'s arrival at phase `seq` (> the member's previous
  /// token), with `size` bytes of payload (size <= kSlotBytes; 0 = none).
  /// The payload write is ordered before the token's release store, so any
  /// awaiter that observed the token may read the payload.
  void publish(i32 member, u64 seq, const void* data = nullptr,
               std::size_t size = 0);

  /// Waits until `member` has published phase >= `seq`, then copies `size`
  /// bytes of its slot payload into `out` (non-null only for payload
  /// phases). Returns false when the wait was abandoned: `cancel` non-null
  /// and `(cancel->load() & mask)` became nonzero — the payload is NOT
  /// copied and the caller must run to the construct end.
  [[nodiscard]] bool await(i32 member, u64 seq, void* out = nullptr,
                           std::size_t size = 0,
                           const std::atomic<i32>* cancel = nullptr,
                           i32 mask = 0) const;

  /// Phase barrier: waits until EVERY member published phase >= `seq`.
  /// Same abandonment contract as await(). Cheaper than a Team barrier for
  /// algorithm-internal phase edges — per-member lines instead of one
  /// contended counter, and no task-drain obligation.
  [[nodiscard]] bool await_all(u64 seq,
                               const std::atomic<i32>* cancel = nullptr,
                               i32 mask = 0) const;

  i32 size() const { return n_; }

 private:
  struct alignas(kCacheLine) Slot {
    std::atomic<u64> token{0};
    unsigned char data[kSlotBytes];
  };
  static_assert(sizeof(std::atomic<u64>) + kSlotBytes == kCacheLine,
                "slot must fill one cache line");

  const i32 n_;
  std::vector<Slot> slots_;
};

}  // namespace zomp::rt
