#include "runtime/pool.h"

#include <algorithm>

#include "runtime/fault.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace zomp::rt {

namespace {

/// Returns a cached hot team's workers to the pool and empties the slot.
/// Requires the slot's team to be quiescent (never called on an in_use
/// ancestor). During pool teardown the idle-stack push is skipped — some of
/// those Worker objects may already be destroyed.
void dismiss_slot(HotSlot& slot);

}  // namespace

// ---------------------------------------------------------------------------
// Worker — doorbell handoff (DESIGN.md S1.6)
// ---------------------------------------------------------------------------

Worker::Worker(i32 gtid, i32 pool_index) : pool_index_(pool_index) {
  state_.gtid = gtid;
  state_.worker = this;
  thread_ = std::thread([this] { loop(); });
}

Worker::~Worker() {
  shutdown_.store(true, std::memory_order_release);
  ring();
  if (thread_.joinable()) thread_.join();
}

void Worker::ring() {
  // Single-writer doorbell: the worker is held exclusively by one master (or
  // the destructor), so the relaxed read-modify-write cannot race another
  // ring. The seq_cst store doubles as the release that publishes job_ and
  // as the first half of the store-load fence against parked_.
  const u64 next = doorbell_.load(std::memory_order_relaxed) + 1;
  doorbell_.store(next, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst)) {
    // The empty critical section orders this wake after the worker is
    // actually inside cv_.wait (it holds the mutex until it sleeps), so the
    // notify cannot slip between the worker's predicate check and its sleep.
    { const std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_one();
  }
}

void Worker::assign(Team* team, i32 tid, Microtask fn, void** args) {
  // Exclusivity invariant (the seed's mailbox busy-check, kept observable):
  // the worker must have consumed every previously rung job, which the
  // caller guarantees by observing the prior region's check_out. A
  // violation here would otherwise overwrite an in-flight job and surface
  // as a barrier hang far from the cause.
  ZOMP_CHECK(jobs_consumed_.load(std::memory_order_relaxed) ==
                 doorbell_.load(std::memory_order_relaxed),
             "worker assigned while busy");
  job_ = Job{team, tid, fn, args};
  ring();
}

u64 Worker::wait_doorbell(u64 last_seen) {
  // Spin-then-yield per the wait policy and the oversubscription census
  // (common.h), then condvar-park. Both are re-sampled every call, so a
  // test flipping OMP_WAIT_POLICY — or a spawn that tips the process over
  // the core count — takes effect at the next region boundary.
  const i32 grace = doorbell_grace_rounds();
  Backoff backoff;
  i32 rounds = 0;
  for (;;) {
    const u64 v = doorbell_.load(std::memory_order_acquire);
    if (v != last_seen) return v;
    if (rounds < grace) {
      ++rounds;
      backoff.pause();
      continue;
    }
    // Park. parked_ must be visible before the doorbell re-check inside the
    // wait predicate (store-load fence, paired with ring()'s seq_cst store):
    // whichever of {our park intent, the master's ring} lands second in the
    // total order is observed by the other side.
    parked_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return doorbell_.load(std::memory_order_acquire) != last_seen;
      });
    }
    parked_.store(false, std::memory_order_relaxed);
  }
}

void Worker::loop() {
  bind_thread_state(&state_);
  u64 seen = 0;
  for (;;) {
    seen = wait_doorbell(seen);
    if (shutdown_.load(std::memory_order_acquire)) return;
    // job_ is plain memory: the doorbell acquire above ordered the master's
    // writes before this copy, and our previous check_out (observed by the
    // master before it re-assigned) ordered this copy's predecessor reads
    // before the master's writes.
    const Job job = job_;
    jobs_consumed_.store(seen, std::memory_order_relaxed);
    // ICV inheritance at region entry (worker-side so a hot-team re-arm
    // never writes remote member state): this region's implicit task copies
    // its data environment from the team, which the master stamped with its
    // own ICVs in the Team ctor / rearm. tid, current_task and the
    // construct sequence counters persist across reuses of the same team —
    // every identity protocol they feed is monotonic (see Team::rearm).
    state_.icv = job.team->icv();
    // Placement at job-take, same worker-side discipline: partition ICVs,
    // place assignment, and — only if the place changed since this OS
    // thread last bound — the sched_setaffinity call (team.cpp). A hot
    // re-arm reuses the plan, so the syscall is skipped on unchanged reuse.
    job.team->bind_member(state_, job.tid);
    trace_emit(TraceEv::kImplicitTaskBegin, job.tid, job.team->size());
    job.fn(state_.gtid, job.tid, job.args);
    // The join rendezvous is never cancellable: cancelled members skipped
    // user barriers but everybody meets here, so the master's teardown /
    // re-arm below the join stays race-free.
    job.team->join_barrier_wait(job.tid);
    trace_emit(TraceEv::kImplicitTaskEnd, job.tid, job.team->size());
    // check_out() is this thread's final access to the team; the master
    // re-arms or destroys the team only after every member has checked out.
    job.team->check_out();
  }
}

// ---------------------------------------------------------------------------
// Pool — lock-free idle stack, mutex-guarded spawn
// ---------------------------------------------------------------------------

namespace {

constexpr u64 kIdleIndexMask = 0xffffffffu;

constexpr u64 pack_idle(u64 tag, i32 index_plus1) {
  return (tag << 32) | static_cast<u32>(index_plus1);
}
constexpr u64 idle_tag(u64 head) { return head >> 32; }
constexpr i32 idle_index_plus1(u64 head) {
  return static_cast<i32>(head & kIdleIndexMask);
}

}  // namespace

Pool& Pool::instance() {
  static Pool pool;
  return pool;
}

Pool::~Pool() {
  // Publish teardown before any Worker dies: worker ThreadStates destroyed
  // below may hold cached hot teams whose member Workers were already freed
  // (vector destruction order), so their dismissal must not touch the idle
  // stack once this flag is up.
  shutting_down_.store(true, std::memory_order_release);
}

Worker* Pool::pop_idle() {
  u64 head = idle_head_.load(std::memory_order_acquire);
  for (;;) {
    const i32 idx1 = idle_index_plus1(head);
    if (idx1 == 0) return nullptr;
    Worker* w = registry_[idx1 - 1].load(std::memory_order_acquire);
    // Reading next_idle of a node another thread may pop concurrently is
    // safe: workers are never freed before process exit, the field is
    // atomic, and a stale value dies with the tag-checked CAS below.
    const i32 next1 = w->next_idle.load(std::memory_order_relaxed) + 1;
    const u64 desired = pack_idle(idle_tag(head) + 1, next1);
    if (idle_head_.compare_exchange_weak(head, desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return w;
    }
  }
}

void Pool::push_idle(Worker* w) {
  u64 head = idle_head_.load(std::memory_order_relaxed);
  for (;;) {
    w->next_idle.store(idle_index_plus1(head) - 1, std::memory_order_relaxed);
    const u64 desired = pack_idle(idle_tag(head) + 1, w->pool_index() + 1);
    if (idle_head_.compare_exchange_weak(head, desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      return;
    }
  }
}

std::vector<Worker*> Pool::acquire(i32 want) {
  std::vector<Worker*> out;
  if (want <= 0) return out;
  out.reserve(static_cast<std::size_t>(want));
  while (static_cast<i32>(out.size()) < want) {
    Worker* w = pop_idle();
    if (w == nullptr) break;
    out.push_back(w);
  }
  if (static_cast<i32>(out.size()) < want) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Master threads count against the limit too, hence the -1.
    const i32 limit = std::min(
        kMaxWorkers,
        std::max(0, GlobalIcv::instance().thread_limit() - 1));
    while (static_cast<i32>(out.size()) < want &&
           static_cast<i32>(all_.size()) < limit) {
      // Fault-injection hook (fault.h): a failed spawn abandons this grow
      // attempt — `break`, not `continue`, modelling pthread_create refusing
      // under resource pressure. The caller's short-acquire protocol turns
      // the shortfall into a smaller but fully consistent team (every
      // downstream sizing derives from the delivered member list).
      if (fault_should_fail(FaultSite::kSpawn)) break;
      const i32 index = static_cast<i32>(all_.size());
      all_.push_back(std::make_unique<Worker>(allocate_gtid(), index));
      registry_[index].store(all_.back().get(), std::memory_order_release);
      out.push_back(all_.back().get());
    }
  }
  return out;
}

void Pool::release(const std::vector<Worker*>& workers) {
  for (Worker* w : workers) {
    // A worker returning to the idle stack gives up its master role: any
    // nested teams it cached while bound are dismissed (recursively freeing
    // THEIR workers the same way), so hot sub-teams live exactly as long as
    // the outer binding that made them hot — pinned workers can never leak
    // behind an idle worker nobody will fork from again. The worker is
    // quiescent here (checked out, parked on its doorbell), which makes
    // this cross-thread touch of its hot_slots safe: the release/acquire
    // pair of its next doorbell ring orders these writes before the worker
    // reads anything.
    for (HotSlot& slot : w->state().hot_slots) dismiss_slot(slot);
    push_idle(w);
  }
}

i32 Pool::spawned() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<i32>(all_.size());
}

// ---------------------------------------------------------------------------
// fork
// ---------------------------------------------------------------------------

namespace {

struct SavedBinding {
  Team* team;
  i32 tid;
  Icv icv;
  u64 ws_seq;
  u64 single_seq;
  u64 red_seq;
  MemberDispatch dispatch;
  TaskContext* current_task;
  i32 place_num;
};

SavedBinding save(const ThreadState& ts) {
  return SavedBinding{ts.team,     ts.tid,          ts.icv,
                      ts.ws_seq,   ts.single_seq,   ts.red_seq,
                      ts.dispatch, ts.current_task, ts.place_num};
}

void restore(ThreadState& ts, const SavedBinding& s) {
  ts.team = s.team;
  ts.tid = s.tid;
  ts.icv = s.icv;
  ts.ws_seq = s.ws_seq;
  ts.single_seq = s.single_seq;
  // The reduction sequence keys the ReductionTree rendezvous (slot tokens,
  // reuse gate, broadcast parity); a nested fork's Team ctor zeroed it, and
  // resuming the outer region with a rewound sequence would match stale
  // tokens (wrong partials) or spin on tokens never published (deadlock).
  ts.red_seq = s.red_seq;
  ts.dispatch = s.dispatch;
  ts.current_task = s.current_task;
  // The *logical* place assignment of the enclosing region comes back; the
  // applied-mask cache (bound_place) deliberately does not — it mirrors OS
  // state, which a nested bound region may have legitimately changed.
  ts.place_num = s.place_num;
}

/// Runs one region on an already-armed team: bind and ring every bound
/// worker, run the master's share, join, and wait for the last member's
/// check-out. Brackets the region with the oversubscription census
/// (common.h) so every wait primitive sees the *currently running* worker
/// count.
void run_region(Team& team, const std::vector<Worker*>& workers, Microtask fn,
                void** args, ThreadState& master) {
  const i32 n = static_cast<i32>(workers.size());
  if (n > 0) note_active_workers(n);
  trace_emit(TraceEv::kParallelBegin, team.size(), team.level());
  master.counters->add(Metric::kParallelRegions);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i]->assign(&team, static_cast<i32>(i) + 1, fn, args);
  }
  // Workers bind themselves at job-take (Worker::loop); the master's
  // placement is applied here, on its own thread.
  team.bind_member(master, 0);
  trace_emit(TraceEv::kImplicitTaskBegin, 0, team.size());
  fn(master.gtid, 0, args);
  team.join_barrier_wait(0);
  trace_emit(TraceEv::kImplicitTaskEnd, 0, team.size());
  team.wait_all_checked_out();
  // All members are out: cancellation state is per-region and dies with it,
  // so the next region on this (possibly hot-cached) team starts clean.
  team.reset_cancellation();
  trace_emit(TraceEv::kParallelEnd, team.size(), team.level());
  if (n > 0) note_active_workers(-n);
}

void dismiss_slot(HotSlot& slot) {
  if (!slot.team) return;
  if (!Pool::instance().shutting_down()) {
    Pool::instance().release(slot.workers);
  }
  slot.workers.clear();
  slot.team.reset();
  slot.level = -1;
  slot.requested = 0;
  slot.bind_sig = 0;
  slot.undersized_reuses = 0;
}

}  // namespace

ThreadState::~ThreadState() {
  for (HotSlot& slot : hot_slots) dismiss_slot(slot);
}

void fork_call(Microtask fn, void** args, const ForkOptions& opts) {
  ThreadState& ts = current_thread();

  i32 want = opts.num_threads > 0      ? opts.num_threads
             : ts.pushed_num_threads > 0 ? ts.pushed_num_threads
                                         : ts.icv.nthreads;
  ts.pushed_num_threads = 0;
  if (want < 1) want = 1;
  if (!opts.if_clause) want = 1;
  if (ts.team->active_level() >= ts.icv.max_active_levels) want = 1;

  // Effective proc_bind: clause (inline option or the ABI's one-shot push)
  // wins over the bind-var list entry for this nesting level.
  BindKind bind = opts.proc_bind;
  if (bind == BindKind::kUnset) bind = ts.pushed_proc_bind;
  ts.pushed_proc_bind = BindKind::kUnset;
  if (bind == BindKind::kUnset) {
    bind = GlobalIcv::instance().bind_at(ts.icv.bind_index);
  }

  // The placement signature keys the hot cache alongside level and request;
  // it is 0 (and placement fully off) when binding is false/unavailable, so
  // unbound programs see the exact pre-affinity fast path.
  const u64 bind_sig =
      binding_sig(bind, ts.icv.part_lo, ts.icv.part_len, ts.place_num, want);

  // The child data environment: ICVs inherited from the encountering thread,
  // with bind-var advanced one nesting level (place-partition fields are
  // overridden per member by Team::bind_member when a plan is active).
  Icv child_icv = ts.icv;
  child_icv.bind_index = ts.icv.bind_index + 1;

  // Hot-team cache probe (DESIGN.md S1.6): per-level, keyed on (parent
  // level, request, binding signature). Any master — including pool workers
  // forking nested teams — caches its recent teams in a few slots, so
  // programs alternating between region shapes stop rebuild-churning.
  const i32 parent_level = ts.team->level();
  const bool cacheable = parent_level < ThreadState::kHotSlots;
  HotSlot* hit = nullptr;
  if (cacheable) {
    for (HotSlot& slot : ts.hot_slots) {
      if (slot.team != nullptr && !slot.in_use &&
          slot.level == parent_level && slot.requested == want &&
          slot.bind_sig == bind_sig) {
        hit = &slot;
        break;
      }
    }
  }

  // A hot team the pool shrank below its request (transient contention at
  // build time) is still reused — but not forever: every Nth undersized
  // reuse rebuilds through the pool so the team grows back once the
  // contention has cleared. Full-size hot teams never pay this.
  constexpr i32 kUndersizedRetryPeriod = 64;
  const bool retry_growth =
      hit != nullptr && hit->team->size() < want &&
      ++hit->undersized_reuses >= kUndersizedRetryPeriod;

  if (hit != nullptr && !retry_growth) {
    // Fast path: matching shape back-to-back — recycle the team in place.
    // Cost: the rearm stores + one doorbell ring per worker; no lock, no
    // pool traffic, no allocation. The binding plan is keyed by bind_sig,
    // so it carries over untouched and bind_member skips the setaffinity
    // syscall on every member (place unchanged).
    ts.counters->add(Metric::kHotTeamHits);
    const SavedBinding saved = save(ts);
    Team& team = *hit->team;
    team.rearm(child_icv, parent_level + 1,
               saved.team->active_level() + (team.size() > 1 ? 1 : 0));
    // Parent is per-region, not per-cache-entry: a cached team can be
    // re-entered under a different ancestor (nested masters), so refresh it
    // on every fork before the doorbell ring publishes the team.
    team.set_parent(saved.team);
    hit->last_use = ++ts.hot_tick;
    hit->in_use = true;  // nested forks must not evict a running ancestor
    run_region(team, hit->workers, fn, args, ts);
    hit->in_use = false;
    team.checkpoint_master();  // before restore clobbers the master's counters
    restore(ts, saved);
    return;
  }

  // Miss (or forced growth retry): pick the victim slot before acquiring so
  // its workers are back on the idle stack for deterministic reuse. A growth
  // retry replaces the undersized entry it hit; a miss takes an empty slot,
  // then the least recently used. Entries differing only in binding
  // signature are distinct shapes, so alternating proc_binds keep both hot.
  ts.counters->add(Metric::kHotTeamRebuilds);
  HotSlot* victim = hit;
  if (cacheable) {
    if (victim == nullptr) {
      for (HotSlot& slot : ts.hot_slots) {
        if (slot.team == nullptr && !slot.in_use) {
          victim = &slot;
          break;
        }
      }
    }
    if (victim == nullptr) {
      // LRU over quiescent slots. At least one exists: live (in_use)
      // ancestors occupy at most parent_level < kHotSlots slots.
      for (HotSlot& slot : ts.hot_slots) {
        if (slot.in_use) continue;
        if (victim == nullptr || slot.last_use < victim->last_use) {
          victim = &slot;
        }
      }
      ZOMP_CHECK(victim != nullptr, "every hot slot is a live ancestor");
    }
    dismiss_slot(*victim);
  }

  std::vector<Worker*> workers;
  if (want > 1) {
    workers = Pool::instance().acquire(want - 1);
    if (static_cast<i32>(workers.size()) < want - 1) {
      // The pool came up short while this thread's other cached teams pin
      // parked workers: cannibalize every quiescent slot and retry the
      // shortfall, so a size change never starves on this thread's own
      // cache (the old single-slot dismiss-on-mismatch behaviour).
      bool dismissed = false;
      for (HotSlot& slot : ts.hot_slots) {
        if (slot.team != nullptr && !slot.in_use) {
          dismiss_slot(slot);
          dismissed = true;
        }
      }
      if (dismissed) {
        const std::vector<Worker*> more = Pool::instance().acquire(
            want - 1 - static_cast<i32>(workers.size()));
        workers.insert(workers.end(), more.begin(), more.end());
      }
    }
  }

  const SavedBinding saved = save(ts);
  // A short acquire (thread limit / contention) shrinks the team: every
  // sizing downstream — barrier, dispatch ring nthreads, reduction tree,
  // implicit task contexts, binding plan — derives from this member list,
  // never from `want`, so there is no dangling member slot.
  const i32 size = static_cast<i32>(workers.size()) + 1;
  const i32 level = parent_level + 1;
  const i32 active = saved.team->active_level() + (size > 1 ? 1 : 0);

  std::vector<ThreadState*> members;
  members.reserve(static_cast<std::size_t>(size));
  members.push_back(&ts);
  for (Worker* w : workers) members.push_back(&w->state());

  auto team = std::make_unique<Team>(std::move(members), child_icv, level,
                                     active);
  team->set_parent(saved.team);  // backs omp_get_team_size(level) queries
  if (bind_sig != 0) {
    team->set_binding(plan_binding(bind, saved.icv.part_lo, saved.icv.part_len,
                                   saved.place_num, size));
  }

  if (cacheable) {
    // Keep the team armed in the victim slot (workers stay bound): the next
    // fork matching (level, request, binding) takes the fast path above.
    victim->team = std::move(team);
    victim->workers = std::move(workers);
    victim->level = parent_level;
    victim->requested = want;
    victim->bind_sig = bind_sig;
    victim->undersized_reuses = 0;
    victim->last_use = ++ts.hot_tick;
    victim->in_use = true;
    run_region(*victim->team, victim->workers, fn, args, ts);
    victim->in_use = false;
    victim->team->checkpoint_master();
    restore(ts, saved);
    return;
  }

  run_region(*team, workers, fn, args, ts);
  team.reset();
  Pool::instance().release(workers);
  restore(ts, saved);
}

}  // namespace zomp::rt
