#include "runtime/icv.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "runtime/env.h"
#include "runtime/metrics.h"
#include "runtime/topology.h"
#include "runtime/trace.h"

namespace zomp::rt {

namespace {

i32 hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<i32>(hc);
}

}  // namespace

GlobalIcv& GlobalIcv::instance() {
  static GlobalIcv g;
  return g;
}

GlobalIcv::GlobalIcv() {
  // Default team size follows the processors this process can actually run
  // on (topology.h: sched_getaffinity-intersected), not the machine width:
  // under `taskset -c 0` a bare `parallel` forks 1 thread, like libomp.
  default_team_size_ = Topology::instance().num_procs();
  if (const auto n = env_int("NUM_THREADS")) {
    if (*n > 0) {
      default_team_size_ = static_cast<i32>(*n);
    } else {
      // Parsed but nonsensical: same unified warn-once channel as a value
      // that failed to parse at all, then fall back to the default.
      warn_malformed_env("NUM_THREADS", std::to_string(*n).c_str(),
                         "must be positive");
    }
  }
  // A generous default: teams larger than the hardware are legal (tests use
  // them deliberately, and single-core CI containers still fork 8-wide
  // teams), but something must bound runaway nesting. The spec leaves
  // thread-limit-var implementation-defined; libomp's default is "huge".
  thread_limit_ =
      std::max({64, 4 * hardware_threads(), 4 * default_team_size_});
  if (const auto lim = env_int("THREAD_LIMIT"); lim && *lim > 0) {
    thread_limit_ = static_cast<i32>(*lim);
  }
  if (const auto dyn = env_bool("DYNAMIC")) dynamic_default_ = *dyn;
  if (const auto nested = env_bool("NESTED"); nested && *nested) {
    max_levels_default_ = 8;
  }
  if (const auto levels = env_int("MAX_ACTIVE_LEVELS"); levels && *levels > 0) {
    max_levels_default_ = static_cast<i32>(*levels);
  }
  if (const auto sched = env_schedule()) run_sched_default_ = *sched;
  if (const auto policy = env_wait_policy()) set_wait_policy(*policy);
  if (const auto bind = env_proc_bind()) proc_bind_list_ = *bind;
  if (const auto display = env_bool("DISPLAY_AFFINITY")) {
    display_affinity_ = *display;
  }
  // Keep the default format's fixed text identical to the pre-ICV report so
  // existing log scrapes (and the AffinityReportFormat test) stay valid.
  affinity_format_ = "zomp: level %L thread %n bound to place %p, OS procs {%A}";
  if (const auto fmt = env_string("AFFINITY_FORMAT"); fmt && !fmt->empty()) {
    affinity_format_ = *fmt;
  }
  if (const auto cancel = env_bool("CANCELLATION")) {
    cancellation_.store(*cancel, std::memory_order_relaxed);
  }
  if (const auto prio = env_int("MAX_TASK_PRIORITY")) {
    if (*prio >= 0) {
      max_task_priority_ = static_cast<i32>(*prio);
    } else {
      warn_malformed_env("MAX_TASK_PRIORITY", std::to_string(*prio).c_str(),
                         "must be non-negative");
    }
  }
  // Observability (DESIGN.md S12): arm the tracer and metrics registry
  // before the DISPLAY_ENV block below, so a verbose display reports the
  // parsed state (and malformed values have already warned through the
  // env funnel).
  trace_init_from_env();
  metrics_init_from_env();
  if (const auto display = env_string("DISPLAY_ENV")) {
    const std::string t = *display;
    if (t == "true" || t == "TRUE" || t == "1") {
      display_env(/*verbose=*/false);
    } else if (t == "verbose" || t == "VERBOSE") {
      display_env(/*verbose=*/true);
    } else if (t != "false" && t != "FALSE" && t != "0") {
      warn_malformed_env("DISPLAY_ENV", display->c_str());
    }
  }
}

void GlobalIcv::display_env(bool verbose) const {
  // libomp's block format: BEGIN/END fences with one "  NAME = 'value'"
  // line per ICV, so log scrapers written for real OpenMP runtimes work
  // unchanged.
  std::FILE* out = stderr;
  std::fprintf(out, "OPENMP DISPLAY ENVIRONMENT BEGIN\n");
  std::fprintf(out, "  _OPENMP = '202111'\n");
  std::fprintf(out, "  OMP_NUM_THREADS = '%d'\n", default_team_size_);
  std::fprintf(out, "  OMP_THREAD_LIMIT = '%d'\n", thread_limit_);
  std::fprintf(out, "  OMP_DYNAMIC = '%s'\n",
               dynamic_default_ ? "TRUE" : "FALSE");
  std::fprintf(out, "  OMP_MAX_ACTIVE_LEVELS = '%d'\n", max_levels_default_);
  std::fprintf(out, "  OMP_MAX_TASK_PRIORITY = '%d'\n", max_task_priority_);
  std::fprintf(out, "  OMP_SCHEDULE = '%s%s'\n",
               schedule_kind_name(run_sched_default_.kind),
               run_sched_default_.chunk > 0
                   ? ("," + std::to_string(run_sched_default_.chunk)).c_str()
                   : "");
  std::fprintf(out, "  OMP_WAIT_POLICY = '%s'\n",
               wait_policy() == WaitPolicy::kPassive ? "PASSIVE" : "ACTIVE");
  std::string bind_list;
  for (const BindKind kind : proc_bind_list_) {
    if (!bind_list.empty()) bind_list += ",";
    bind_list += bind_kind_name(kind);
  }
  std::fprintf(out, "  OMP_PROC_BIND = '%s'\n",
               bind_list.empty() ? "false" : bind_list.c_str());
  std::fprintf(out, "  OMP_PLACES = '%s'\n",
               env_string("PLACES").value_or("cores").c_str());
  std::fprintf(out, "  OMP_CANCELLATION = '%s'\n",
               cancellation() ? "TRUE" : "FALSE");
  std::fprintf(out, "  OMP_DISPLAY_AFFINITY = '%s'\n",
               display_affinity_ ? "TRUE" : "FALSE");
  std::fprintf(out, "  OMP_AFFINITY_FORMAT = '%s'\n",
               affinity_format().c_str());
  if (verbose) {
    std::fprintf(out, "  ZOMP_FAULT_INJECT = '%s'\n",
                 env_string("FAULT_INJECT").value_or("").c_str());
    // Report the tracer/metrics state as armed, not the raw env text: a
    // malformed value (warned above through the env funnel) reads as off.
    std::fprintf(out, "  ZOMP_TRACE = '%s'\n", trace_output_path().c_str());
    std::fprintf(out, "  ZOMP_METRICS = '%s'\n",
                 metrics_enabled() ? "TRUE" : "FALSE");
  }
  std::fprintf(out, "OPENMP DISPLAY ENVIRONMENT END\n");
}

std::string GlobalIcv::affinity_format() const {
  std::lock_guard<std::mutex> lock(affinity_format_mu_);
  return affinity_format_;
}

void GlobalIcv::set_affinity_format(std::string fmt) {
  std::lock_guard<std::mutex> lock(affinity_format_mu_);
  affinity_format_ = std::move(fmt);
}

BindKind GlobalIcv::bind_at(i32 index) const {
  if (proc_bind_list_.empty()) return BindKind::kFalse;
  if (proc_bind_list_[0] == BindKind::kFalse) return BindKind::kFalse;
  const auto last = static_cast<i32>(proc_bind_list_.size()) - 1;
  return proc_bind_list_[static_cast<std::size_t>(std::clamp(index, 0, last))];
}

void GlobalIcv::set_proc_bind_list(std::vector<BindKind> list) {
  proc_bind_list_ = std::move(list);
}

namespace {

/// Workers currently running a region (fork adds, join subtracts). The
/// master executing the region is the +1 in oversubscribed() — masters are
/// runnable whether or not they are inside a region.
std::atomic<i32> g_active_workers{0};

bool oversubscribed() noexcept {
  // The census compares against the processors this process can actually be
  // scheduled on (topology.h: sysfs intersected with sched_getaffinity), not
  // hardware_concurrency: a `taskset -c 0` run with an 8-thread team is
  // oversubscribed 8-on-1 however many cores the machine has, and must park
  // rather than spin. Topology::instance() is a one-time discovery; the
  // per-call cost is one relaxed load.
  static const i32 usable = Topology::instance().num_procs();
  return g_active_workers.load(std::memory_order_relaxed) + 1 > usable;
}

}  // namespace

void note_active_workers(i32 delta) noexcept {
  g_active_workers.fetch_add(delta, std::memory_order_relaxed);
}

i32 doorbell_grace_rounds() noexcept {
  // Under the active policy a doorbell waiter spins its exponential budget,
  // then yields for a grace period before condvar-parking: long enough that
  // the fork cadence of a tight region loop (the NPB pattern) never pays a
  // futex wake, short enough that a master gone serial releases the cores
  // within a few scheduler quanta. Passive waiters — and every waiter in an
  // oversubscribed process, where a grace-yielding worker starves the very
  // master that will ring it while staying on the run queue and lengthening
  // every scheduler pass — park after one round.
  constexpr i32 kActiveGraceRounds = 256;
  if (GlobalIcv::instance().wait_policy() == WaitPolicy::kPassive ||
      oversubscribed()) {
    return 1;
  }
  return backoff_spin_limit() + kActiveGraceRounds;
}

i32 backoff_spin_limit() noexcept {
  // Active: 10 exponential rounds (~100 pause instructions total) before
  // yielding; passive: hand the core back immediately. Oversubscribed
  // processes yield immediately even under the active policy — the thread
  // being waited on needs this core, so every pause round just stretches
  // the convoy (measured 3.5x on fork/join wall time, 1-core container).
  // The lookup is one relaxed load after the first call; GlobalIcv
  // construction is guarded by the usual magic-static once-flag.
  constexpr i32 kActiveSpinRounds = 10;
  if (GlobalIcv::instance().wait_policy() == WaitPolicy::kPassive ||
      oversubscribed()) {
    return 0;
  }
  return kActiveSpinRounds;
}

Icv GlobalIcv::initial() const {
  Icv icv;
  icv.nthreads = default_team_size_;
  icv.run_sched = run_sched_default_;
  icv.dynamic = dynamic_default_;
  icv.max_active_levels = max_levels_default_;
  return icv;
}

}  // namespace zomp::rt
