#include "runtime/task.h"

#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace zomp::rt {

TaskPool::TaskPool(i32 members) {
  queues_.reserve(static_cast<std::size_t>(members));
  mailboxes_.reserve(static_cast<std::size_t>(members));
  for (i32 i = 0; i < members; ++i) {
    queues_.push_back(std::make_unique<WorkStealingDeque>());
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

TaskPool::~TaskPool() {
  // Normal joins drain every deque before the team dies, but reclaim any
  // stragglers so teardown never leaks parked tasks (the deque slots and
  // mailbox entries hold raw pointers the unique_ptr wrapper released).
  for (auto& queue : queues_) {
    while (Task* task = queue->pop()) delete task;
  }
  for (auto& mailbox : mailboxes_) {
    for (Task* task : mailbox->tasks) delete task;
    mailbox->tasks.clear();
  }
}

void TaskPool::set_victim_order(std::vector<i32> order) {
  const auto n = queues_.size();
  ZOMP_CHECK(order.empty() || order.size() == n * (n - 1),
             "victim-order table must be n x (n-1) or empty");
  victim_order_ = std::move(order);
}

std::unique_ptr<Task> TaskPool::push(i32 tid, std::unique_ptr<Task> task) {
  ZOMP_CHECK(tid >= 0 && tid < static_cast<i32>(queues_.size()),
             "task push from non-member thread");
  // Count before publishing: a thief must never observe a task whose
  // completion could drop `outstanding` below zero. `queued` seq_cst: that
  // increment is the state change the join barrier's WaitGate park keys on
  // (see queued()), so it must land in the seq_cst total order before the
  // waker's parked-flag load.
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (queues_[static_cast<std::size_t>(tid)]->push(task.get())) {
    task.release();  // ownership parked in the deque until pop/steal
    return nullptr;
  }
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  return task;  // deque full: caller executes inline
}

void TaskPool::push_remote(i32 target, std::unique_ptr<Task> task) {
  ZOMP_CHECK(target >= 0 && target < static_cast<i32>(mailboxes_.size()),
             "task mailed to non-member thread");
  // Same counting discipline as push(): counters land before the task is
  // visible, queued_ seq_cst for the WaitGate park protocol. No overflow
  // path — the mailbox is unbounded.
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  queued_.fetch_add(1, std::memory_order_seq_cst);
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(target)];
  {
    const std::lock_guard<std::mutex> lock(mb.mu);
    mb.tasks.push_back(task.release());
  }
  mb.count.fetch_add(1, std::memory_order_release);
}

Task* TaskPool::mailbox_pop(i32 member) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(member)];
  // Advisory pre-filter, same contract as maybe_empty(): a stale zero only
  // delays discovery until the caller's queued_ re-check loops back here.
  if (mb.count.load(std::memory_order_relaxed) <= 0) return nullptr;
  const std::lock_guard<std::mutex> lock(mb.mu);
  if (mb.tasks.empty()) return nullptr;
  Task* task = mb.tasks.front();
  mb.tasks.pop_front();
  mb.count.fetch_sub(1, std::memory_order_relaxed);
  return task;
}

std::unique_ptr<Task> TaskPool::take(i32 tid, Counters& counters) {
  const auto n = static_cast<i32>(queues_.size());
  ZOMP_CHECK(tid >= 0 && tid < n, "task take from non-member thread");
  // Own deque first, LIFO for locality.
  if (Task* task = queues_[static_cast<std::size_t>(tid)]->pop()) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return std::unique_ptr<Task>(task);
  }
  // Own mailbox next: tasks another member aimed specifically at us (the
  // place-aware taskloop spray) beat a cross-place steal.
  if (Task* task = mailbox_pop(tid)) {
    counters.add(Metric::kMailboxPulls);
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return std::unique_ptr<Task>(task);
  }
  if (n <= 1) return nullptr;
  // Steal FIFO from siblings. With a victim-order table installed the scan
  // is hierarchical — same-place siblings first, then same core, same
  // socket, anywhere (each tier already rotated per-member by the builder).
  // Without one, fall back to the flat ring, but start it at a per-member
  // golden-ratio-hashed offset instead of tid+1: under single-producer
  // fan-out a fixed start makes every idle thief hammer the same victim's
  // top CAS in lockstep (convoying), and the stagger fans them out. A lost
  // CAS race just moves on to the next victim; the caller's retry loop
  // provides the backoff.
  const i32* order = victim_order_.empty()
                         ? nullptr
                         : victim_order_.data() +
                               static_cast<std::size_t>(tid) *
                                   static_cast<std::size_t>(n - 1);
  const i32 start =
      tid + 1 +
      static_cast<i32>((static_cast<u32>(tid) * 0x9E3779B9u) %
                       static_cast<u32>(n));
  i32 visited = 0;
  for (i32 k = 0; visited < n - 1; ++k) {
    i32 victim;
    if (order != nullptr) {
      victim = order[visited++];
    } else {
      victim = (start + k) % n;
      if (victim == tid) continue;
      ++visited;
    }
    WorkStealingDeque& q = *queues_[static_cast<std::size_t>(victim)];
    if (!q.maybe_empty()) {
      counters.add(Metric::kStealAttempts);
      trace_emit(TraceEv::kStealAttempt, victim);
      bool lost = false;
      if (Task* task = q.steal(&lost)) {
        counters.add(Metric::kTasksStolen);
        trace_emit(TraceEv::kStealSuccess, victim);
        queued_.fetch_sub(1, std::memory_order_acq_rel);
        return std::unique_ptr<Task>(task);
      }
      if (lost) counters.add(Metric::kStealLost);
    }
    if (Task* task = mailbox_pop(victim)) {
      counters.add(Metric::kMailboxPulls);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return std::unique_ptr<Task>(task);
    }
  }
  return nullptr;
}

}  // namespace zomp::rt
