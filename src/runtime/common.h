// Shared low-level definitions for the zomp runtime.
//
// The runtime is a from-scratch reproduction of the role LLVM's libomp plays
// in the paper: the library that outlined parallel regions call into.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

namespace zomp::rt {

using i32 = std::int32_t;
using i64 = std::int64_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Size used to pad hot shared state so that independently-updated fields do
/// not false-share. 64 bytes covers x86-64's line. Its adjacent-line
/// prefetcher pulls lines in 128-byte pairs, so words that every member
/// writes or spins on in each barrier (Team::bar_arrived_ and its neighbours)
/// sit 2 * kCacheLine apart: at one line apart, cg's barrier time moved with
/// the Team's heap address mod 128.
inline constexpr std::size_t kCacheLine = 64;

/// Fatal-error reporter (defined in fault.cpp): prints the message plus the
/// calling thread's team/place context (through the OMP_AFFINITY_FORMAT
/// expander) to stderr, then aborts. Every ZOMP_CHECK routes through here so
/// a production crash report says WHERE in the thread topology the invariant
/// broke, not just which source line.
[[noreturn]] void fatal(const char* msg, const char* file, int line);

/// Runtime invariant check. These guard *internal* invariants (a user data
/// race cannot trip them) and are cheap enough to keep in release builds:
/// a broken runtime invariant would otherwise surface as a hang.
#define ZOMP_CHECK(cond, msg)                             \
  do {                                                    \
    if (!(cond)) {                                        \
      ::zomp::rt::fatal(msg, __FILE__, __LINE__);         \
    }                                                     \
  } while (0)

/// Waiting behaviour for runtime spin loops (`wait-policy-var`,
/// OMP_WAIT_POLICY): active waiters burn an exponentially-growing spin budget
/// before yielding the core; passive waiters yield immediately.
enum class WaitPolicy : i32 { kActive = 0, kPassive = 1 };

/// Spin budget implied by the process wait policy (defined in icv.cpp next
/// to the ICV storage): kPassive -> 0, kActive -> a bounded spin count —
/// UNLESS the process is oversubscribed (see note_thread_census), where
/// active waits also go straight to yielding: pause-spinning a core that a
/// runnable peer needs only delays the convoy it is waiting on.
i32 backoff_spin_limit() noexcept;

/// Backoff rounds a park-capable wait (the worker doorbell, pool.h) burns
/// before falling back to a condvar park. Active policy: the exponential
/// spin budget plus a yield grace period, so a hot team's workers catch
/// back-to-back forks without ever touching the futex path. Passive policy
/// or an oversubscribed process: 1 (park almost immediately — the master
/// needs the core, and a parked worker leaves the run queue so scheduler
/// passes over the remaining runnable threads stay short). Defined in
/// icv.cpp.
i32 doorbell_grace_rounds() noexcept;

/// Oversubscription census: fork/join reports workers entering (+n) and
/// leaving (-n) regions here, so the count reflects *currently running*
/// runtime threads — not the lifetime spawn peak, which would latch the
/// slow-wait mode forever after one oversized region. The wait primitives
/// above compare it against the hardware core count on every budget
/// decision. Relaxed-atomic; a momentarily stale reading only mis-tunes a
/// spin, never correctness.
void note_active_workers(i32 delta) noexcept;

/// Bounded exponential backoff for spin loops, honouring OMP_WAIT_POLICY.
///
/// Every barrier / join / task-drain wait in the runtime sits on one of
/// these. The machines this repo targets (laptops, CI) are routinely
/// oversubscribed, so even under the active policy the spin is bounded and
/// falls back to yielding the core: a pure spin barrier with threads > cores
/// turns O(us) waits into O(scheduler quantum) waits.
class Backoff {
 public:
  Backoff() : limit_(backoff_spin_limit()) {}
  explicit Backoff(i32 spin_limit) : limit_(spin_limit) {}

  void pause() {
    if (spins_ < limit_) {
      ++spins_;
      // Exponential: 2, 4, ... up to 64 pause instructions per round.
      for (int i = 0; i < (1 << (spins_ < 6 ? spins_ : 6)); ++i) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
      }
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { spins_ = 0; }

 private:
  i32 limit_ = 0;
  i32 spins_ = 0;
};

/// `n` Ts for the length of a call: in the object itself up to N, one heap
/// array above — so the common small case allocates nothing.
template <typename T, std::size_t N>
class SmallArray {
 public:
  explicit SmallArray(std::size_t n)
      : heap_(n > N ? std::make_unique<T[]>(n) : nullptr),
        data_(n > N ? heap_.get() : inline_) {}
  SmallArray(const SmallArray&) = delete;
  SmallArray& operator=(const SmallArray&) = delete;

  T* data() { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  T& operator[](i32 i) { return data_[static_cast<std::size_t>(i)]; }

 private:
  T inline_[N];
  std::unique_ptr<T[]> heap_;
  T* data_;
};

}  // namespace zomp::rt
