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
#pragma once

#include <condition_variable>
#include <mutex>

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

}  // namespace zomp::rt
