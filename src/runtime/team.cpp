#include "runtime/team.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#endif

#include "runtime/fault.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace zomp::rt {

namespace {

thread_local ThreadState* tls_state = nullptr;

/// Steady-clock nanoseconds for the barrier wait-time counter. Only read
/// when ZOMP_METRICS is on, so the vdso call stays off the default path.
u64 monotonic_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<i32>& gtid_counter() {
  static std::atomic<i32> counter{0};
  return counter;
}

}  // namespace

void bind_thread_state(ThreadState* state) { tls_state = state; }

i32 allocate_gtid() {
  return gtid_counter().fetch_add(1, std::memory_order_relaxed);
}

ThreadState& current_thread() {
  if (tls_state == nullptr) {
    // First runtime contact on this thread (the bootstrap thread or a
    // user-created std::thread): give it a root state bound to a serial team.
    thread_local std::unique_ptr<ThreadState> root;
    root = std::make_unique<ThreadState>();
    root->gtid = allocate_gtid();
    root->icv = GlobalIcv::instance().initial();
    tls_state = root.get();
    root->serial_team = std::make_unique<Team>(
        std::vector<ThreadState*>{root.get()}, root->icv, /*level=*/0,
        /*active_level=*/0);
  }
  return *tls_state;
}

Team::Team(std::vector<ThreadState*> members, Icv icv, i32 level,
           i32 active_level)
    : members_(std::move(members)),
      icv_(icv),
      level_(level),
      active_level_(active_level),
      implicit_ctx_(members_.size()),
      tasks_(static_cast<i32>(members_.size())),
      reduce_tree_(static_cast<i32>(members_.size())) {
  ZOMP_CHECK(!members_.empty(), "team must have at least one member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    ThreadState& ts = *members_[i];
    ts.team = this;
    ts.tid = static_cast<i32>(i);
    ts.icv = icv_;
    ts.ws_seq = 0;
    ts.single_seq = 0;
    ts.red_seq = 0;
    ts.dispatch = MemberDispatch{};
    ts.current_task = &implicit_ctx_[i];
  }
}

void Team::rearm(const Icv& icv, i32 level, i32 active_level) {
  // Quiescence precondition: every non-master member has checked out of the
  // previous region and the master has observed it (wait_all_checked_out's
  // acquire), so plain/relaxed stores here cannot race a member — the next
  // thing a member reads is its doorbell, whose release/acquire pair orders
  // this whole re-arm before the member's first access. Worker-side state
  // (tid, current_task, sequence counters) persists on purpose: every
  // construct-identity protocol is monotonic, and all members finished the
  // same number of constructs at the join, so carrying the counters forward
  // keeps the team in step without touching seven remote cache lines per
  // region. Only the master's ThreadState — clobbered by the outer
  // save/restore — is rebuilt, from the checkpoint taken at the last join.
  ThreadState& master = *members_[0];
  master.team = this;
  master.tid = 0;
  master.icv = icv;
  master.ws_seq = master_ws_seq_;
  master.single_seq = master_single_seq_;
  master.red_seq = master_red_seq_;
  master.dispatch = MemberDispatch{};
  master.current_task = &implicit_ctx_[0];
  icv_ = icv;  // workers copy this when they take the doorbell job
  level_ = level;
  active_level_ = active_level;
  checked_out_.store(0, std::memory_order_relaxed);
  // Cancellation is per-region: a recycled hot team must not inherit the
  // previous region's verdict (belt to run_region's braces — the reset also
  // runs at the join, but a team parked cancelled must come up clean).
  reset_cancellation();
}

void Team::checkpoint_master() {
  const ThreadState& master = *members_[0];
  master_ws_seq_ = master.ws_seq;
  master_single_seq_ = master.single_seq;
  master_red_seq_ = master.red_seq;
}

namespace {

/// %A: the bound place's OS processor ids, comma-separated. Empty when the
/// thread is unbound (place_num -1) — matching the pre-ICV report.
std::string proc_list_text(const ThreadState& ts) {
  std::string out;
  if (ts.place_num >= 0 &&
      ts.place_num < PlaceTable::instance().num_places()) {
    const Place& place = PlaceTable::instance().place(ts.place_num);
    for (std::size_t i = 0; i < place.procs.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(place.procs[i]);
    }
  }
  return out;
}

/// %P: the OS process id (0 where the platform offers none).
i64 process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<i64>(::getpid());
#else
  return 0;
#endif
}

/// %i: the OS thread id where the platform exposes one (gettid has no libc
/// wrapper on older glibc, hence the raw syscall); elsewhere a stable hash
/// of the C++ thread id — still distinct per thread, which is all the
/// format field promises.
i64 native_thread_id() {
#if defined(__linux__)
  return static_cast<i64>(::syscall(SYS_gettid));
#else
  return static_cast<i64>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
}

/// %H: the machine's hostname.
std::string host_name() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

/// Maps an OpenMP long field name (%{thread_num}) to its short-name char,
/// or 0 when unknown.
char long_field_char(const std::string& name) {
  if (name == "thread_num") return 'n';
  if (name == "num_threads") return 'N';
  if (name == "nesting_level") return 'L';
  if (name == "process_id") return 'P';
  if (name == "native_thread_id") return 'i';
  if (name == "host") return 'H';
  if (name == "thread_affinity") return 'A';
  return 0;
}

std::string expand_field(char field, const ThreadState& ts) {
  switch (field) {
    case 'n': return std::to_string(ts.tid);
    case 'N':
      return std::to_string(ts.team != nullptr ? ts.team->size() : 1);
    case 'L':
      return std::to_string(ts.team != nullptr ? ts.team->level() : 0);
    case 'P': return std::to_string(process_id());
    case 'i': return std::to_string(native_thread_id());
    case 'H': return host_name();
    case 'A': return proc_list_text(ts);
    case 'p': return std::to_string(ts.place_num);  // zomp extension
    case '%': return "%";
    default: return std::string("%") + field;  // unknown: copy through
  }
}

}  // namespace

std::string affinity_report(const ThreadState& ts,
                            const std::string& format) {
  // Built as a string end to end: a socket-wide place on a large machine
  // lists dozens of procs, and a truncated report is worse than none.
  std::string out;
  out.reserve(format.size() + 16);
  for (std::size_t i = 0; i < format.size(); ++i) {
    if (format[i] != '%' || i + 1 == format.size()) {
      out.push_back(format[i]);
      continue;
    }
    char field = format[++i];
    if (field == '{') {
      const std::size_t close = format.find('}', i);
      if (close == std::string::npos) {  // unterminated: copy through
        out += "%{";
        continue;
      }
      field = long_field_char(format.substr(i + 1, close - i - 1));
      if (field == 0) {  // unknown long name: copy through verbatim
        out += "%" + format.substr(i, close - i + 1);
        i = close;
        continue;
      }
      i = close;
    }
    out += expand_field(field, ts);
  }
  return out;
}

std::string affinity_report(const ThreadState& ts) {
  return affinity_report(ts, GlobalIcv::instance().affinity_format());
}

void Team::bind_member(ThreadState& ts, i32 tid) {
  if (!binding_.active) return;
  const MemberBinding& mb = binding_.members[static_cast<std::size_t>(tid)];
  // The member's data environment gets its own slice of the partition
  // (spread subdivides; close/primary inherit the whole parent partition) —
  // this overrides the master-environment copy taken from the team ICVs.
  ts.icv.part_lo = mb.part_lo;
  ts.icv.part_len = mb.part_len;
  const bool changed = ts.place_num != mb.place;
  ts.place_num = mb.place;
  const u32 generation = PlaceTable::instance().generation();
  if (ts.bound_place != mb.place || ts.bound_generation != generation) {
    // The one OS call of the subsystem. Refusal (non-Linux, cgroup-restricted
    // mask) is deliberate no-op degradation: the logical place assignment
    // above stays in force for omp_get_place_num and nested partitioning.
    if (apply_place_mask(mb.place)) {
      ts.bound_place = mb.place;
      ts.bound_generation = generation;
    } else {
      ts.bound_place = -1;  // the OS mask no longer matches any place
    }
  }
  if (changed && GlobalIcv::instance().display_affinity()) {
    std::fprintf(stderr, "%s\n", affinity_report(ts).c_str());
  }
}

bool Team::barrier_wait(i32 tid) {
  // Entry cancellation point (OpenMP 5.2 §5): a member that observes a
  // pending `cancel parallel` NEVER arrives — abandoners head straight for
  // the join barrier, so the survivors' arrival count only has to balance
  // against other survivors (each of which abandons from its wait loop,
  // rolling its own arrival back). seq_cst load pairs with the seq_cst
  // fetch_or in cancel_activate. Checked before the episode events fire, so
  // a never-arriving member contributes no unpaired barrier-enter.
  if (cancel_request_.load(std::memory_order_seq_cst) & kCancelParallel) {
    return true;
  }
  trace_emit(TraceEv::kBarrierEnter, kBarrierUser);
  Counters& counts = *member(tid).counters;
  counts.add(Metric::kBarrierEpisodes);
  const u64 wait_t0 = metrics_enabled() ? monotonic_ns() : 0;
  const bool abandoned = barrier_wait_body(tid);
  if (wait_t0 != 0) {
    counts.add(Metric::kBarrierWaitNs, monotonic_ns() - wait_t0);
  }
  trace_emit(TraceEv::kBarrierWaitEnd, kBarrierUser, abandoned ? 1 : 0);
  return abandoned;
}

bool Team::barrier_wait_body(i32 tid) {
  ThreadState& ts = member(tid);
  if (size() == 1) {
    Backoff backoff;
    while (tasks_.outstanding() > 0) {
      if (!run_one_task(ts)) backoff.pause();
    }
    // A completed barrier closes the innermost loop construct: clear any
    // pending loop-cancel so the next loop of the region starts clean.
    cancel_request_.fetch_and(~kCancelLoop, std::memory_order_relaxed);
    if (ts.current_task->deps != nullptr &&
        ts.current_task->children.load(std::memory_order_acquire) == 0) {
      ts.current_task->deps.reset();
    }
    return false;
  }
  const u64 epoch = bar_epoch_.load(std::memory_order_acquire);
  if (bar_arrived_.fetch_add(1, std::memory_order_acq_rel) == size() - 1) {
    // Last arriver: drain the team's tasks (helping), then open the gate.
    Backoff backoff;
    while (tasks_.outstanding() > 0) {
      if (run_one_task(ts)) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    // Cancelled loops always end in a barrier (cancellable worksharing must
    // not be nowait), so a completed episode is exactly where the loop bit
    // dies: the construct it named is over for every member.
    cancel_request_.fetch_and(~kCancelLoop, std::memory_order_relaxed);
    bar_arrived_.store(0, std::memory_order_relaxed);
    // seq_cst epoch store: the WaitGate park below keys on it (the classic
    // store-load pairing documented in barrier.h).
    bar_epoch_.store(epoch + 1, std::memory_order_seq_cst);
    bar_gate_.wake_all();
  } else {
    const i32 grace = doorbell_grace_rounds();
    Backoff backoff;
    i32 rounds = 0;
    while (bar_epoch_.load(std::memory_order_seq_cst) == epoch) {
      // Cancellation re-check: the canceller never arrives, so without this
      // the waiters would park forever. Each abandoner rolls back its own
      // arrival, returning the count to zero once all survivors left —
      // the epoch never advances and the episode simply evaporates.
      if (cancel_request_.load(std::memory_order_seq_cst) & kCancelParallel) {
        bar_arrived_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
      }
      // Help with explicit tasks, but only when some are STEALABLE: the
      // common task-free region (every NPB kernel) must not pay a full
      // deque scan per wait iteration — one shared-counter load keeps the
      // barrier's spin body at two loads — and a task merely *executing*
      // elsewhere offers nothing to help with.
      if (tasks_.queued() > 0 && run_one_task(ts)) {
        backoff.reset();
        rounds = 0;
        continue;
      }
      if (rounds < grace) {
        ++rounds;
        backoff.pause();
        continue;
      }
      // Grace expired — a long serial phase on the last arriver, a passive
      // wait policy, or an oversubscribed process: condvar-park instead of
      // yielding forever (ROADMAP barrier item). Woken by the epoch flip or
      // by a task enqueue (enqueue_task), whose seq_cst publications pair
      // with the seq_cst predicate loads here; the grace itself mirrors the
      // worker doorbell so hot back-to-back joins never touch the futex.
      // The predicate keys on queued() — stealable work — NOT outstanding():
      // one long task executing elsewhere must leave the waiters asleep, not
      // cycling grace-spin/instant-unpark for its whole duration. It also
      // keys on the cancel flag: cancel_activate's wake_all must find the
      // parked waiters willing to get up and abandon.
      bar_gate_.park([&] {
        return bar_epoch_.load(std::memory_order_seq_cst) != epoch ||
               (cancel_request_.load(std::memory_order_seq_cst) &
                kCancelParallel) != 0 ||
               tasks_.queued() > 0;
      });
      rounds = 0;
      backoff.reset();
    }
  }
  // The member's dependence wavefront cannot outlive a full barrier (every
  // team task drained above), so retire the table here; guarded on the child
  // count for robustness against non-conforming in-task barriers.
  if (ts.current_task->deps != nullptr &&
      ts.current_task->children.load(std::memory_order_acquire) == 0) {
    ts.current_task->deps.reset();
  }
  return false;
}

void Team::join_barrier_wait(i32 tid) {
  trace_emit(TraceEv::kBarrierEnter, kBarrierJoin);
  Counters& counts = *member(tid).counters;
  counts.add(Metric::kBarrierEpisodes);
  const u64 wait_t0 = metrics_enabled() ? monotonic_ns() : 0;
  join_barrier_wait_body(tid);
  if (wait_t0 != 0) {
    counts.add(Metric::kBarrierWaitNs, monotonic_ns() - wait_t0);
  }
  trace_emit(TraceEv::kBarrierWaitEnd, kBarrierJoin);
}

void Team::join_barrier_wait_body(i32 tid) {
  // The region-end rendezvous: the user barrier's protocol minus every
  // cancellation check, on its own counters. After a `cancel parallel` the
  // survivors skipped arbitrarily many user barriers, so bar_epoch_ is no
  // longer meaningful team-wide; join_epoch_ is, because nobody ever skips
  // a join. Discarded tasks drain HERE: execute_task skips their bodies but
  // runs all accounting, so outstanding() reaches zero without running user
  // code.
  ThreadState& ts = member(tid);
  if (size() == 1) {
    Backoff backoff;
    while (tasks_.outstanding() > 0) {
      if (!run_one_task(ts)) backoff.pause();
    }
    if (ts.current_task->deps != nullptr &&
        ts.current_task->children.load(std::memory_order_acquire) == 0) {
      ts.current_task->deps.reset();
    }
    return;
  }
  const u64 epoch = join_epoch_.load(std::memory_order_acquire);
  if (join_arrived_.fetch_add(1, std::memory_order_acq_rel) == size() - 1) {
    Backoff backoff;
    while (tasks_.outstanding() > 0) {
      if (run_one_task(ts)) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    join_arrived_.store(0, std::memory_order_relaxed);
    join_epoch_.store(epoch + 1, std::memory_order_seq_cst);
    bar_gate_.wake_all();
  } else {
    const i32 grace = doorbell_grace_rounds();
    Backoff backoff;
    i32 rounds = 0;
    while (join_epoch_.load(std::memory_order_seq_cst) == epoch) {
      if (tasks_.queued() > 0 && run_one_task(ts)) {
        backoff.reset();
        rounds = 0;
        continue;
      }
      if (rounds < grace) {
        ++rounds;
        backoff.pause();
        continue;
      }
      // Shares bar_gate_ with the user barrier: a wake meant for the other
      // episode is a spurious unpark (the predicate re-check re-parks), a
      // missed wake is impossible because both protocols publish with
      // seq_cst stores before wake_all.
      bar_gate_.park([&] {
        return join_epoch_.load(std::memory_order_seq_cst) != epoch ||
               tasks_.queued() > 0;
      });
      rounds = 0;
      backoff.reset();
    }
  }
  if (ts.current_task->deps != nullptr &&
      ts.current_task->children.load(std::memory_order_acquire) == 0) {
    ts.current_task->deps.reset();
  }
}

bool Team::cancel_activate(ThreadState& ts, i32 construct) {
  // cancel-var gates everything: when OMP_CANCELLATION is unset the whole
  // subsystem is a no-op and generated cancellation checks cost one relaxed
  // load. Read at use (not cached at construction) so hot-cached teams obey
  // a set_cancellation issued between regions.
  if (!GlobalIcv::instance().cancellation()) return false;
  cancel_request_.fetch_or(construct, std::memory_order_seq_cst);
  trace_emit(TraceEv::kCancel, construct);
  ts.counters->add(Metric::kCancellations);
  // Parallel cancel must unpark barrier waiters so they can abandon their
  // episode; the park predicate re-checks the flag under the gate's lock.
  if (construct & kCancelParallel) bar_gate_.wake_all();
  return true;
}

bool Team::cancellation_requested(ThreadState& ts, i32 construct) {
  (void)ts;
  if (!GlobalIcv::instance().cancellation()) return false;
  return (cancel_request_.load(std::memory_order_seq_cst) & construct) != 0;
}

bool Team::cancel_taskgroup(ThreadState& ts) {
  if (!GlobalIcv::instance().cancellation()) return false;
  TaskGroup* group = ts.current_task->group;
  if (group == nullptr) return false;  // no construct to cancel: no-op
  group->cancelled.store(true, std::memory_order_seq_cst);
  return true;
}

bool Team::taskgroup_cancelled(ThreadState& ts) const {
  for (TaskGroup* g = ts.current_task->group; g != nullptr; g = g->parent) {
    if (g->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool Team::task_discarded(const Task& task) const {
  // Discard-on-take: a pending parallel cancel discards every queued task of
  // the region; a cancelled taskgroup discards its own queued tasks and its
  // descendants' (the group parent chain). No ICV check needed — the flags
  // can only have been set while cancellation was enabled.
  if (cancel_request_.load(std::memory_order_acquire) & kCancelParallel) {
    return true;
  }
  for (TaskGroup* g = task.group; g != nullptr; g = g->parent) {
    if (g->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void Team::dispatch_init(ThreadState& ts, Schedule schedule, i64 lo, i64 hi,
                         i64 step) {
  ZOMP_CHECK(ts.team == this, "dispatch_init from non-member thread");
  Schedule resolved = schedule;
  if (resolved.kind == ScheduleKind::kRuntime) {
    resolved = ts.icv.run_sched;
    if (resolved.kind == ScheduleKind::kRuntime) {
      resolved = Schedule{ScheduleKind::kStatic, 0};  // defensive default
    }
  }

  const u64 seq = ++ts.ws_seq;
  DispatchSlot& slot = dispatch_ring_[seq % kDispatchRing];

  bool initialised = false;
  Backoff backoff;
  for (;;) {
    u64 expected = 0;
    if (slot.owner_seq.compare_exchange_strong(expected, seq,
                                               std::memory_order_acq_rel)) {
      initialised = true;
      break;
    }
    if (expected == seq) break;  // another member initialised construct #seq
    // Slot still owned by an older construct (fast threads under nowait);
    // wait for it to drain — this is the ring's natural backpressure.
    ZOMP_CHECK(expected < seq, "worksharing constructs encountered out of order");
    backoff.pause();
  }

  if (initialised) {
    slot.kind = resolved.kind;
    slot.lo = lo;
    slot.hi = hi;
    slot.step = step;
    slot.chunk = resolved.chunk;
    slot.trips = trip_count(lo, hi, step);
    slot.nthreads = size();
    // Relaxed: `ready`'s release below publishes the reset cursor.
    slot.next.store(0, std::memory_order_relaxed);
    slot.done_members.store(0, std::memory_order_relaxed);
    // Reset the ordered turnstile here, before `ready` is published: every
    // member waits for `ready` before claiming a chunk, so no iteration can
    // observe a stale turnstile value. Safe even while an unrelated nowait
    // loop is still draining, because ordered loops end in a barrier and
    // non-ordered loops never read the turnstile.
    ordered_next_.store(0, std::memory_order_relaxed);
    slot.ready.store(true, std::memory_order_release);
  } else {
    Backoff wait;
    while (!slot.ready.load(std::memory_order_acquire)) wait.pause();
  }

  ts.dispatch.slot = &slot;
  ts.dispatch.seq = seq;
  ts.dispatch.last_chunk = false;
  if (slot.kind == ScheduleKind::kStatic || slot.kind == ScheduleKind::kAuto) {
    dispatch_init_static_cursor(slot, ts.dispatch, ts.tid);
  }
  trace_emit(TraceEv::kDispatchInit, slot.trips,
             static_cast<i64>(slot.kind));
}

bool Team::dispatch_next(ThreadState& ts, i64* plo, i64* phi, bool* plast) {
  DispatchSlot* slot = ts.dispatch.slot;
  ZOMP_CHECK(slot != nullptr, "dispatch_next without dispatch_init");
  // Chunk claims are cancellation points: a pending loop cancel (or a
  // parallel cancel, which subsumes it — the member must reach the region
  // end) makes every member's next claim take the exhaustion path instead,
  // so the loop's remaining iterations are abandoned without touching the
  // cursor — it simply stops advancing and each member detaches on its own
  // schedule.
  const bool cancelled =
      (cancel_request_.load(std::memory_order_acquire) &
       (kCancelLoop | kCancelParallel)) != 0;
  bool last = false;
  if (!cancelled && dispatch_next_chunk(*slot, ts.dispatch, *ts.counters,
                                        plo, phi, &last)) {
    ts.dispatch.last_chunk = last;
    if (plast != nullptr) *plast = last;
    trace_emit(TraceEv::kDispatchClaim, *plo, *phi);
    return true;
  }
  // Exhausted for this member: detach; the last member to detach frees the
  // slot for reuse by a later construct.
  dispatch_detach(ts, *slot);
  return false;
}

void Team::dispatch_break(ThreadState& ts) {
  DispatchSlot* slot = ts.dispatch.slot;
  if (slot == nullptr) return;  // static-path loop or already detached
  dispatch_detach(ts, *slot);
}

void Team::dispatch_detach(ThreadState& ts, DispatchSlot& slot) {
  // Read `nthreads` *before* the detach RMW: the operands of == are
  // unsequenced, and a read evaluated after our own fetch_add would race the
  // next construct's initialiser once the last detacher frees the slot.
  ts.dispatch.slot = nullptr;
  const i32 nthreads = slot.nthreads;
  if (slot.done_members.fetch_add(1, std::memory_order_acq_rel) ==
      nthreads - 1) {
    slot.ready.store(false, std::memory_order_relaxed);
    slot.owner_seq.store(0, std::memory_order_release);
  }
}

bool Team::reduce_combine(ThreadState& ts, void* data, std::size_t size,
                          ReduceCombineFn fn, void* ctx, bool broadcast) {
  ZOMP_CHECK(ts.team == this, "reduction from non-member thread");
  // Instances are matched across members by encounter order, the same
  // team-wide identity argument dispatch slots rely on (members encounter
  // reduction constructs in the same order within a region).
  const u64 seq = ++ts.red_seq;
  return reduce_tree_.combine(ts.tid, seq, data, size, fn, ctx, broadcast);
}

bool Team::single_begin(ThreadState& ts) {
  ZOMP_CHECK(ts.team == this, "single from non-member thread");
  const u64 seq = ++ts.single_seq;
  // First arriver for construct #seq observes the counter at seq-1 (a member
  // cannot reach construct k+1 without construct k having been claimed) and
  // advances it; everyone else fails the exchange and skips the block.
  u64 expected = seq - 1;
  return single_counter_.compare_exchange_strong(expected, seq,
                                                 std::memory_order_acq_rel);
}

void Team::ordered_enter(ThreadState& ts, i64 index) {
  (void)ts;
  Backoff backoff;
  while (ordered_next_.load(std::memory_order_acquire) != index) {
    backoff.pause();
  }
}

void Team::ordered_exit(ThreadState& ts, i64 index) {
  (void)ts;
  ordered_next_.store(index + 1, std::memory_order_release);
}

void Team::run_task_inline(ThreadState& ts, TaskBodyRef source,
                           bool final_ctx) {
  // Undeferred (if(false)), included (final-descendant) and serial-team
  // tasks run immediately in a fresh context so nested taskwait / taskgroup
  // / depend clauses still behave.
  trace_emit(TraceEv::kTaskCreate, /*deferred=*/0);
  TaskBody body;
  source.place_into(body);
  TaskContext inline_ctx;
  inline_ctx.group = ts.current_task->group;
  inline_ctx.in_final = final_ctx;
  TaskContext* saved = ts.current_task;
  ts.current_task = &inline_ctx;
  trace_emit(TraceEv::kTaskSchedule);
  body();
  // The inline task's own children must finish before it completes.
  Backoff backoff;
  while (inline_ctx.children.load(std::memory_order_acquire) > 0) {
    if (!run_one_task(ts)) backoff.pause();
  }
  body.reset();
  ts.current_task = saved;
  trace_emit(TraceEv::kTaskComplete);
  ts.counters->add(Metric::kTasksExecuted);
}

void Team::enqueue_task(ThreadState& ts, std::unique_ptr<Task> task) {
  bool was_empty = false;
  if (auto rejected = tasks_.push(ts.tid, std::move(task), &was_empty)) {
    // Bounded deque full: run at the creation/release point (a legal task
    // scheduling point), which throttles runaway producers and — through
    // execute_task — still releases the rejected task's own successors.
    execute_task(ts, std::move(rejected), /*counted=*/false);
    return;
  }
  // Wake one join-barrier waiter parked past its doorbell grace, and only
  // when this task made the queue non-empty: the woken waiter helps until
  // the queue drains again, so a burst costs one wake rather than a lock
  // and a notify_all per task. One seq_cst load when nobody is parked.
  if (was_empty) bar_gate_.wake_one();
}

std::unique_ptr<Task> Team::new_task(ThreadState& ts, TaskBodyRef body,
                                     i32 priority) {
  auto task = std::make_unique<Task>();
  body.place_into(task->body);
  task->parent = ts.current_task;
  task->group = ts.current_task->group;
  // priority clauses clamp into [0, max-task-priority-var] (OpenMP 5.2
  // §12.4): values above the ICV ceiling are allowed but not meaningful.
  task->priority = std::clamp(priority, 0,
                              GlobalIcv::instance().max_task_priority());
  task->parent->children.fetch_add(1, std::memory_order_acq_rel);
  if (task->group != nullptr) {
    task->group->active.fetch_add(1, std::memory_order_acq_rel);
  }
  trace_emit(TraceEv::kTaskCreate, /*deferred=*/1, task->priority);
  return task;
}

void Team::task_create(ThreadState& ts, TaskBodyRef body, bool deferred) {
  ZOMP_CHECK(ts.team == this, "task created from non-member thread");
  const bool in_final = ts.current_task->in_final;
  // Graceful degradation: an injected allocation failure downgrades the task
  // to undeferred inline execution at the creation point — a legal task
  // scheduling point, the same valve the deque-overflow path uses — so the
  // program stays correct, just less parallel.
  if (!deferred || in_final || size() == 1 ||
      fault_should_fail(FaultSite::kAlloc)) {
    run_task_inline(ts, body, in_final);
    return;
  }
  enqueue_task(ts, new_task(ts, body, /*priority=*/0));
}

void Team::task_create_ex(ThreadState& ts, TaskBodyRef body,
                          const TaskOpts& opts) {
  ZOMP_CHECK(ts.team == this, "task created from non-member thread");
  const bool final_task = opts.final || ts.current_task->in_final;
  if (opts.ndeps <= 0) {
    // No dependences: the original fast path (plus priority recording and
    // the same alloc-fault downgrade as task_create).
    if (!opts.deferred || final_task || size() == 1 ||
        fault_should_fail(FaultSite::kAlloc)) {
      run_task_inline(ts, body, final_task);
      return;
    }
    enqueue_task(ts, new_task(ts, body, opts.priority));
    return;
  }

  // -- Dependence path (DESIGN.md S1.7) -------------------------------------
  // Sibling creation is serialised by the parent task, so the table walk is
  // single-threaded; only the per-node lock below is contended (against
  // predecessors completing concurrently).
  TaskContext& parent = *ts.current_task;
  DepTable& table = parent.dep_table();
  NodeRef node = NodeRef::make();

  // Merge duplicate addresses first (depend(in: x) + depend(out: x) on one
  // task acts as inout) so a task never draws an edge to its own node.
  struct MergedDep {
    const void* addr;
    bool writes;
  };
  SmallArray<MergedDep, kStackDeps> merged(static_cast<std::size_t>(opts.ndeps));
  i32 nmerged = 0;
  for (i32 i = 0; i < opts.ndeps; ++i) {
    const DepSpec& d = opts.deps[i];
    const bool writes = d.kind != DepKind::kIn;
    bool found = false;
    for (i32 j = 0; j < nmerged; ++j) {
      if (merged[j].addr == d.addr) {
        merged[j].writes = merged[j].writes || writes;
        found = true;
        break;
      }
    }
    if (!found) merged[nmerged++] = MergedDep{d.addr, writes};
  }

  auto link = [&](DepNode& pred) {
    const std::lock_guard<std::mutex> lock(pred.mu);
    // Completed predecessors impose nothing.
    if (pred.done.load(std::memory_order_relaxed)) return;
    pred.add_successor(node.get());
    node->npredecessors.fetch_add(1, std::memory_order_relaxed);
  };
  for (i32 j = 0; j < nmerged; ++j) {
    const MergedDep& m = merged[j];
    DepEntry& entry = table[m.addr];
    entry.drop_finished_writer();
    if (m.writes) {
      // out/inout: after the last writer and every reader since it.
      if (entry.last_out) link(*entry.last_out);
      for (const NodeRef& r : entry.readers) link(*r);
      entry.readers.clear();
      entry.last_out = node;
    } else {
      // in: after the last writer only; readers run concurrently.
      if (entry.last_out) link(*entry.last_out);
      entry.add_reader(node);
    }
  }

  const bool deferred = opts.deferred && !final_task && size() > 1 &&
                        !fault_should_fail(FaultSite::kAlloc);
  if (!deferred) {
    // An undeferred task still honours its dependences: help run queued
    // tasks until every predecessor completed (count down to the creation
    // reference), then run inline and release successors.
    Backoff backoff;
    while (node->npredecessors.load(std::memory_order_acquire) > 1) {
      if (run_one_task(ts)) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    node->npredecessors.fetch_sub(1, std::memory_order_acq_rel);
    run_task_inline(ts, body, final_task);
    complete_depnode(ts, *node);
    return;
  }

  auto task = new_task(ts, body, opts.priority);
  DepNode& parked = *node;
  task->depnode = std::move(node);
  // Park before dropping the creation reference: whoever decrements the
  // count to zero — us, when every predecessor already finished, or the
  // last-finishing predecessor — owns the task and enqueues it exactly once.
  // Once our decrement leaves the count above zero, the task may run and
  // free the node at any moment, so only the zero-decrementer touches it.
  parked.task = task.release();
  if (parked.npredecessors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::unique_ptr<Task> ready(std::exchange(parked.task, nullptr));
    enqueue_task(ts, std::move(ready));
  }
}

void Team::complete_depnode(ThreadState& ts, DepNode& node) {
  {
    const std::lock_guard<std::mutex> lock(node.mu);
    node.done.store(true, std::memory_order_release);
  }
  // `done` closed the successor list (creators append only under the lock
  // and only while it is false), so it is read here without the lock.
  auto release = [&](DepNode* succ) {
    if (succ->npredecessors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last predecessor: the acquire above pairs with the creator's release
      // drop of the creation reference, ordering its `task` store before
      // this read. Undeferred successors never park (task stays null) —
      // their encountering thread spins the count down itself.
      std::unique_ptr<Task> ready(std::exchange(succ->task, nullptr));
      if (ready) enqueue_task(ts, std::move(ready));
    }
  };
  const i32 inline_count = std::min(node.nsuccessors, DepNode::kInlineSuccessors);
  for (i32 i = 0; i < inline_count; ++i) release(node.successors[i]);
  for (DepNode* succ : node.more_successors) release(succ);
}

void Team::execute_task(ThreadState& ts, std::unique_ptr<Task> task,
                        bool counted) {
  TaskContext* saved = ts.current_task;
  task->ctx.group = task->group;  // descendants join the same group
  ts.current_task = &task->ctx;
  // Discard-on-take (cancellation): skip ONLY the body. Everything after —
  // child wait, successor release, group/parent decrements, mark_finished —
  // still runs, which is the single completion hook this path shares with
  // the deque-overflow inline route (counted == false): a discarded task
  // must drain from every counter a normal task would, or the join barrier
  // and taskgroup_end would wait forever on work that will never run.
  const bool discarded = task_discarded(*task);
  trace_emit(TraceEv::kTaskSchedule, discarded ? 1 : 0);
  if (!discarded) task->body();
  // Children of this task must complete before the task itself does
  // (OpenMP's implicit task completion ordering for taskwait counting is
  // handled by the parent's explicit waits; here we only keep the counters
  // sound: a finished task must not leave live children unaccounted).
  Backoff backoff;
  while (task->ctx.children.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  // The captures die before anything below can let a waiter go:
  // taskwait, taskgroup_end, the barriers and dependent successors all key
  // on the completion steps that follow, and a capture's destructor is part
  // of the task.
  task->body.reset();
  ts.current_task = saved;
  trace_emit(TraceEv::kTaskComplete, discarded ? 1 : 0);
  ts.counters->add(Metric::kTasksExecuted);
  // Release dependent successors BEFORE this task's own counters drop: a
  // released successor enters `outstanding` (enqueue_task -> push) first, so
  // the join barrier's drain count never reads zero with a releasable task
  // still parked. Runs on the overflow-inline path too (counted == false) —
  // a rejected task's successors must not strand.
  if (task->depnode) complete_depnode(ts, *task->depnode);
  if (task->group != nullptr) {
    task->group->active.fetch_sub(1, std::memory_order_acq_rel);
  }
  task->parent->children.fetch_sub(1, std::memory_order_acq_rel);
  if (counted) tasks_.mark_finished();
}

bool Team::run_one_task(ThreadState& ts) {
  // A false return is NOT "the pool is dry": take() may miss a push that is
  // mid-publication (maybe_empty's advisory contract, task.h) or lose a
  // steal race. Every drain loop in this file therefore gates its *exit* on
  // the authoritative counters — outstanding(), queued(), children,
  // group.active — re-read each round, and uses false only to pace its
  // backoff. Audited for ISSUE 6; keep it that way when adding loops.
  auto task = tasks_.take(ts.tid, *ts.counters);
  if (!task) return false;
  execute_task(ts, std::move(task));
  return true;
}

void Team::taskwait(ThreadState& ts) {
  Backoff backoff;
  while (ts.current_task->children.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  // All children complete: every node in the dependence table is done and
  // can impose no further edges, so retire the table — later siblings start
  // a fresh wavefront and long-running parents don't accumulate per-address
  // state across synchronisation points.
  if (ts.current_task->deps != nullptr) ts.current_task->deps.reset();
}

void Team::taskloop(ThreadState& ts, i64 lo, i64 hi, i64 grainsize,
                    i64 num_tasks, std::function<void(i64, i64)> chunk_body) {
  ZOMP_CHECK(ts.team == this, "taskloop from non-member thread");
  // Implicit taskgroup: taskloop returns only when every chunk task (and
  // their descendants) completed, which also keeps `chunk_body` alive for
  // the chunks' whole lifetime.
  TaskGroup group;
  taskgroup_begin(ts, group);
  const i64 trips = hi > lo ? hi - lo : 0;
  if (trips > 0) {
    i64 chunks;
    if (num_tasks > 0) {
      chunks = std::min(num_tasks, trips);
    } else if (grainsize > 0) {
      chunks = (trips + grainsize - 1) / grainsize;
    } else {
      chunks = std::min<i64>(trips, i64{size()} * kTaskloopChunksPerMember);
    }
    // Chunk tasks share `chunk_body` by pointer: they only read it, and
    // the implicit taskgroup keeps it alive until every chunk completed.
    const std::function<void(i64, i64)>* body = &chunk_body;
    const i64 base = trips / chunks;
    const i64 rem = trips % chunks;
    i64 start = lo;
    for (i64 c = 0; c < chunks; ++c) {
      const i64 len = base + (c < rem ? 1 : 0);
      const i64 clo = start;
      const i64 chi = start + len;
      start = chi;
      task_create(ts, [body, clo, chi] { (*body)(clo, chi); });
    }
  }
  taskgroup_end(ts, group);
}

void Team::taskgroup_begin(ThreadState& ts, TaskGroup& group) {
  group.parent = ts.current_task->group;
  group.active.store(0, std::memory_order_relaxed);
  ts.current_task->group = &group;
}

void Team::taskgroup_end(ThreadState& ts, TaskGroup& group) {
  ZOMP_CHECK(ts.current_task->group == &group,
             "mismatched taskgroup begin/end");
  Backoff backoff;
  while (group.active.load(std::memory_order_acquire) > 0) {
    if (run_one_task(ts)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  ts.current_task->group = group.parent;
}

void Team::wait_all_checked_out() {
  Backoff backoff;
  while (checked_out_.load(std::memory_order_acquire) != size() - 1) {
    backoff.pause();
  }
}

}  // namespace zomp::rt
