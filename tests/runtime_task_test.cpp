// Tasking tests: deferral, taskwait, taskgroup, nesting, and barrier
// draining (the runtime's documented extension beyond the paper's scope),
// plus the block layer under task creation: pooled blocks, in-place bodies
// and pruned reader lists.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

namespace {

/// Every global operator new in this binary, from every thread: the block
/// layer tests read it around a task burst.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace zomp {
namespace {

using namespace std::chrono_literals;

TEST(TaskTest, TasksRunByRegionEnd) {
  std::atomic<int> done{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 200; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(done.load(), 200);
}

TEST(TaskTest, TaskwaitWaitsForChildrenOnly) {
  std::atomic<int> children_done{0};
  std::atomic<bool> waited_ok{false};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 50; ++i) {
            task([&] { children_done.fetch_add(1); });
          }
          taskwait();
          waited_ok.store(children_done.load() == 50);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(waited_ok.load());
}

TEST(TaskTest, NestedTasksCompleteViaBarrier) {
  std::atomic<int> grandchildren{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 10; ++i) {
            task([&] {
              for (int j = 0; j < 10; ++j) {
                task([&] { grandchildren.fetch_add(1); });
              }
            });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(grandchildren.load(), 100);
}

TEST(TaskTest, TaskwaitDoesNotWaitForGrandchildren) {
  // taskwait waits on *children*; a child that spawns a grandchild counts as
  // complete when its body (incl. its own child-wait in this runtime's
  // strict-completion model) finishes. We assert only that taskwait returns
  // and the counters are eventually consistent at region end.
  std::atomic<int> total{0};
  parallel(
      [&] {
        single([&] {
          task([&] {
            task([&] { total.fetch_add(1); });
          });
          taskwait();
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(total.load(), 1);
}

TEST(TaskTest, TaskgroupWaitsForDescendants) {
  std::atomic<int> inside{0};
  std::atomic<bool> group_saw_all{false};
  parallel(
      [&] {
        single([&] {
          taskgroup([&] {
            for (int i = 0; i < 20; ++i) {
              task([&] {
                task([&] { inside.fetch_add(1); });  // descendant joins group
              });
            }
          });
          group_saw_all.store(inside.load() == 20);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(group_saw_all.load());
}

TEST(TaskTest, SerialTeamRunsTasksInline) {
  // Outside any parallel region (team of one) tasks execute immediately.
  int done = 0;
  rt::ThreadState& ts = rt::current_thread();
  ts.team->task_create(ts, [&] { ++done; });
  EXPECT_EQ(done, 1);
}

TEST(TaskTest, UndeferredTaskRunsImmediately) {
  std::atomic<int> order{0};
  int at_creation = -1;
  parallel(
      [&] {
        single([&] {
          order.store(1);
          rt::ThreadState& ts = rt::current_thread();
          ts.team->task_create(
              ts, [&] { at_creation = order.load(); }, /*deferred=*/false);
          order.store(2);
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(at_creation, 1) << "undeferred task must run at creation point";
}

TEST(TaskTest, AllMembersCanCreateTasks) {
  std::atomic<int> done{0};
  parallel(
      [&] {
        for (int i = 0; i < 25; ++i) {
          task([&] { done.fetch_add(1); });
        }
      },
      ParallelOptions{4, true});
  EXPECT_EQ(done.load(), 100);
}

TEST(TaskTest, TasksSeeFirstprivateStyleCaptures) {
  // Captured-by-value state must be stable even though the creating frame
  // has moved on by the time the task runs.
  std::atomic<long> sum{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 100; ++i) {
            task([&sum, i] { sum.fetch_add(i); });
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(sum.load(), 99L * 100 / 2);
}

TEST(TaskAbiTest, CAbiTaskCopiesArgument) {
  struct Payload {
    int value;
    std::atomic<int>* sink;
  };
  std::atomic<int> sink{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 1; i <= 32; ++i) {
            Payload p{i, &sink};
            zomp_task(
                nullptr, 0,
                [](void* arg) {
                  auto* payload = static_cast<Payload*>(arg);
                  payload->sink->fetch_add(payload->value);
                },
                &p, sizeof p);
          }
          zomp_taskwait(nullptr, 0);
          EXPECT_EQ(sink.load(), 32 * 33 / 2);
        });
      },
      ParallelOptions{4, true});
}

TEST(TaskAbiTest, TaskgroupAbiCountsNestedDescendants) {
  // The generated-code route (zomp_taskgroup_begin/end) must propagate the
  // innermost live group to nested tasks exactly as hl.h's stack taskgroup
  // does — the reachability-asymmetry regression: a task spawned inside a
  // nested task inside the group IS counted before end returns.
  std::atomic<int> inside{0};
  std::atomic<bool> saw_all{false};
  parallel(
      [&] {
        single([&] {
          void* group = zomp_taskgroup_begin(nullptr, 0);
          for (int i = 0; i < 15; ++i) {
            task([&] {
              task([&] {
                task([&] { inside.fetch_add(1, std::memory_order_relaxed); });
              });
            });
          }
          zomp_taskgroup_end(nullptr, 0, group);
          saw_all.store(inside.load() == 15);
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(saw_all.load());
}

TEST(TaskAbiTest, TaskWithDepsAbiOrdersSiblings) {
  // An inout chain through the C ABI: strict serialisation, no locks.
  long acc = 0;
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 50; ++i) {
            struct Payload {
              long* acc;
            } p{&acc};
            zomp_depend_t dep{&acc, 3 /* inout */};
            zomp_task_with_deps(
                nullptr, 0,
                [](void* arg) {
                  long* a = static_cast<Payload*>(arg)->acc;
                  *a = *a * 2 + 1;
                },
                &p, sizeof p, &dep, 1, /*flags=*/0, /*priority=*/0);
          }
          zomp_taskwait(nullptr, 0);
        });
      },
      ParallelOptions{4, true});
  long expect = 0;
  for (int i = 0; i < 50; ++i) expect = expect * 2 + 1;
  EXPECT_EQ(acc, expect);
}

TEST(TaskAbiTest, TaskloopAbiCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(97);
  for (auto& h : hits) h.store(0);
  struct Payload {
    std::atomic<int>* hits;
  } p{hits.data()};
  parallel(
      [&] {
        single([&] {
          zomp_taskloop(
              nullptr, 0,
              [](std::int64_t lo, std::int64_t hi, void* arg) {
                auto* payload = static_cast<Payload*>(arg);
                for (std::int64_t i = lo; i < hi; ++i) {
                  payload->hits[i].fetch_add(1, std::memory_order_relaxed);
                }
              },
              &p, sizeof p, 0, 97, /*grainsize=*/5, /*num_tasks=*/0);
        });
      },
      ParallelOptions{4, true});
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskTest, UndeferredTaskWithDepsWaitsForPredecessors) {
  // if(false) + depend: the encountering thread must block (helping) until
  // the predecessor completes, then run inline.
  long token = 0;
  bool saw = false;
  parallel(
      [&] {
        single([&] {
          task_depend({dep_out(&token)}, [&] { token = 99; });
          rt::ThreadState& ts = rt::current_thread();
          rt::DepSpec dep = dep_in(&token);
          rt::TaskOpts opts;
          opts.deps = &dep;
          opts.ndeps = 1;
          opts.deferred = false;  // if(false)
          ts.team->task_create_ex(ts, [&] { saw = token == 99; }, opts);
          EXPECT_TRUE(saw) << "undeferred task must run at creation";
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(saw);
}

std::atomic<int> g_callable_hits{0};
void count_callable_hit() { g_callable_hits.fetch_add(1); }
int count_callable_hit_returning() { return g_callable_hits.fetch_add(1); }

TEST(TaskTest, TaskAcceptsEveryCallableKind) {
  // task()/task_depend() take the callable as a template parameter; they
  // must still accept everything std::function<void()> did.
  g_callable_hits.store(0);
  long token = 0;
  parallel(
      [&] {
        single([&] {
          std::function<void()> fn = count_callable_hit;
          const auto lambda = [] { count_callable_hit(); };
          task(count_callable_hit);
          task(&count_callable_hit);
          task(count_callable_hit_returning);
          task(fn);
          task(std::function<void()>(count_callable_hit));
          task(std::ref(fn));
          task(lambda);
          task_depend({dep_inout(&token)}, count_callable_hit);
          task_depend({dep_inout(&token)}, fn);
          taskwait();
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(g_callable_hits.load(), 9);
}

/// A capture that counts its live copies. A copy destroyed on a thread
/// other than the one that made the original sleeps 20 ms first — a slow
/// destructor, run by the member that executed the task.
class SlowCapture {
 public:
  explicit SlowCapture(std::atomic<int>* live)
      : live_(live), origin_(std::this_thread::get_id()) {
    live_->fetch_add(1);
  }
  SlowCapture(const SlowCapture& other)
      : live_(other.live_), origin_(other.origin_) {
    live_->fetch_add(1);
  }
  SlowCapture& operator=(const SlowCapture&) = delete;
  ~SlowCapture() {
    if (std::this_thread::get_id() != origin_) std::this_thread::sleep_for(20ms);
    live_->fetch_sub(1);
  }

 private:
  std::atomic<int>* live_;
  std::thread::id origin_;
};

TEST(TaskTest, TaskwaitReturnsAfterChildCapturesAreDestroyed) {
  // A finished child's captures are part of the child: taskwait must not
  // return while another member is still destroying them. The creator
  // sleeps so the other member of the team takes the task.
  int alive_after_wait = 0;
  for (int region = 0; region < 20; ++region) {
    std::atomic<int> live{0};
    parallel(
        [&] {
          single([&] {
            {
              SlowCapture capture(&live);
              task([capture] {});
            }
            std::this_thread::sleep_for(5ms);
            taskwait();
            if (live.load() != 0) ++alive_after_wait;
          });
        },
        ParallelOptions{2, true});
  }
  EXPECT_EQ(alive_after_wait, 0)
      << "regions where taskwait returned before the child's capture died";
}

TEST(TaskTest, TaskgroupReturnsAfterChildCapturesAreDestroyed) {
  int alive_after_group = 0;
  for (int region = 0; region < 20; ++region) {
    std::atomic<int> live{0};
    parallel(
        [&] {
          single([&] {
            taskgroup([&] {
              {
                SlowCapture capture(&live);
                task([capture] {});
              }
              std::this_thread::sleep_for(5ms);
            });
            if (live.load() != 0) ++alive_after_group;
          });
        },
        ParallelOptions{2, true});
  }
  EXPECT_EQ(alive_after_group, 0)
      << "regions where taskgroup ended before the child's capture died";
}

// -- Block layer ------------------------------------------------------------

/// The taskgraph benchmark's dependence pattern (taskgraph.mz's
/// wavefront_run) on one word per block: solve(k) is inout on block k,
/// update(k, j) reads block k and updates block j, for every j > k.
constexpr rt::i64 kWaveBlocks = 256;
constexpr rt::i64 kWaveTasks = kWaveBlocks * (kWaveBlocks + 1) / 2;  // 32,896

std::uint64_t wave_solve(std::uint64_t v) { return v * 31 + 7; }
std::uint64_t wave_update(std::uint64_t v, std::uint64_t by) {
  return v * 17 + by;
}

std::vector<std::uint64_t> wave_serial() {
  std::vector<std::uint64_t> x(kWaveBlocks);
  for (rt::i64 i = 0; i < kWaveBlocks; ++i) x[i] = static_cast<std::uint64_t>(i + 1);
  for (rt::i64 k = 0; k < kWaveBlocks; ++k) {
    x[k] = wave_solve(x[k]);
    for (rt::i64 j = k + 1; j < kWaveBlocks; ++j) x[j] = wave_update(x[j], x[k]);
  }
  return x;
}

/// The wavefront through the C ABI, with packs shaped like the generated
/// code's (the update pack is 40 bytes, the largest mzc emits).
void wave_abi(std::uint64_t* x) {
  struct SolvePack {
    std::uint64_t* x;
    rt::i64 k;
  };
  struct UpdatePack {
    std::uint64_t* x;
    rt::i64 k;
    rt::i64 j;
    rt::i64 unused[2];
  };
  static_assert(sizeof(UpdatePack) == 40);
  for (rt::i64 k = 0; k < kWaveBlocks; ++k) {
    SolvePack solve{x, k};
    zomp_depend_t solve_deps[] = {{&x[k], 3}};
    zomp_task_with_deps(
        nullptr, 0,
        [](void* arg) {
          auto* p = static_cast<SolvePack*>(arg);
          p->x[p->k] = wave_solve(p->x[p->k]);
        },
        &solve, sizeof solve, solve_deps, 1, 0, 0);
    for (rt::i64 j = k + 1; j < kWaveBlocks; ++j) {
      UpdatePack update{x, k, j, {}};
      zomp_depend_t update_deps[] = {{&x[k], 1}, {&x[j], 3}};
      zomp_task_with_deps(
          nullptr, 0,
          [](void* arg) {
            auto* p = static_cast<UpdatePack*>(arg);
            p->x[p->j] = wave_update(p->x[p->j], p->x[p->k]);
          },
          &update, sizeof update, update_deps, 2, 0, 0);
    }
  }
  zomp_taskwait(nullptr, 0);
}

/// The same wavefront through hl.h.
void wave_hl(std::uint64_t* x) {
  for (rt::i64 k = 0; k < kWaveBlocks; ++k) {
    task_depend({dep_inout(&x[k])}, [x, k] { x[k] = wave_solve(x[k]); });
    for (rt::i64 j = k + 1; j < kWaveBlocks; ++j) {
      task_depend({dep_in(&x[k]), dep_inout(&x[j])},
                  [x, k, j] { x[j] = wave_update(x[j], x[k]); });
    }
  }
  taskwait();
}

TEST(TaskBlockTest, WavefrontSpawnsWithoutAllocating) {
  // Every Task and DepNode comes from the producer's pool, every body is
  // placed inside its block and every depend list fits on the stack, so
  // once the pools are warm a wavefront allocates only for its table.
  const std::vector<std::uint64_t> want = wave_serial();
  std::vector<std::uint64_t> x(kWaveBlocks);
  auto reset = [&] {
    for (rt::i64 i = 0; i < kWaveBlocks; ++i) x[i] = static_cast<std::uint64_t>(i + 1);
  };
  // Warm-up: the producer (the master, in both regions) grows its pools to
  // the wavefront's peak of live blocks.
  parallel(
      [&] {
        master([&] {
          reset();
          wave_abi(x.data());
          reset();
          wave_hl(x.data());
        });
      },
      ParallelOptions{4, true});
  double abi_per_task = -1;
  double hl_per_task = -1;
  bool abi_ok = false;
  bool hl_ok = false;
  parallel(
      [&] {
        master([&] {
          reset();
          std::uint64_t before = g_allocations.load();
          wave_abi(x.data());
          abi_per_task =
              static_cast<double>(g_allocations.load() - before) / kWaveTasks;
          abi_ok = x == want;
          reset();
          before = g_allocations.load();
          wave_hl(x.data());
          hl_per_task =
              static_cast<double>(g_allocations.load() - before) / kWaveTasks;
          hl_ok = x == want;
        });
      },
      ParallelOptions{4, true});
  EXPECT_TRUE(abi_ok) << "C ABI wavefront differs from the serial solve";
  EXPECT_TRUE(hl_ok) << "hl.h wavefront differs from the serial solve";
  EXPECT_LE(abi_per_task, 0.1) << "allocations per task, zomp_task_with_deps";
  EXPECT_LE(hl_per_task, 0.1) << "allocations per task, zomp::task_depend";
}

/// A firstprivate pack larger than TaskBody's inline storage: every byte
/// carries the pack's tag.
struct OversizedPack {
  unsigned char tag;
  unsigned char bytes[199];
};
static_assert(sizeof(OversizedPack) == 200);
static_assert(sizeof(OversizedPack) > rt::TaskBody::kInlineBytes);

constexpr int kOversizedPacks = 24;
std::atomic<int> g_pack_seen[kOversizedPacks + 1];
std::atomic<int> g_pack_torn{0};

void check_oversized_pack(void* arg) {
  const auto* p = static_cast<const OversizedPack*>(arg);
  bool whole = p->tag >= 1 && p->tag <= kOversizedPacks;
  for (unsigned char b : p->bytes) whole = whole && b == p->tag;
  if (whole) {
    g_pack_seen[p->tag].fetch_add(1);
  } else {
    g_pack_torn.fetch_add(1);
  }
}

TEST(TaskBlockTest, OversizedPackIsCopiedAtTheCall) {
  // The caller scribbles over its pack right after each call, so a task
  // that read the caller's bytes instead of its own copy sees a torn or
  // foreign tag.
  for (auto& seen : g_pack_seen) seen.store(0);
  g_pack_torn.store(0);
  parallel(
      [&] {
        single([&] {
          OversizedPack pack{};
          long sink = 0;
          zomp_depend_t dep{&sink, 3};
          for (int tag = 1; tag <= kOversizedPacks; ++tag) {
            std::memset(&pack, tag, sizeof pack);
            zomp_task(nullptr, 0, check_oversized_pack, &pack, sizeof pack);
            std::memset(&pack, 0xEE, sizeof pack);
            std::memset(&pack, tag, sizeof pack);
            zomp_task_with_deps(nullptr, 0, check_oversized_pack, &pack,
                                sizeof pack, &dep, 1, 0, 0);
            std::memset(&pack, 0xEE, sizeof pack);
          }
          zomp_taskwait(nullptr, 0);
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(g_pack_torn.load(), 0);
  for (int tag = 1; tag <= kOversizedPacks; ++tag) {
    EXPECT_EQ(g_pack_seen[tag].load(), 2) << "tag " << tag;
  }
}

TEST(TaskBlockTest, FinishedReadersArePruned) {
  // Undeferred readers finish at their creation point, so the entry for
  // `a` must not keep one node per reader until the next barrier.
  long a = 0;
  int ran = 0;
  std::size_t readers = 0;
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 5000; ++i) {
            task_depend({dep_in(&a)}, [&] { ++ran; }, TaskOptions{false});
          }
          rt::ThreadState& ts = rt::current_thread();
          readers = ts.current_task->deps->at(&a).readers.size();
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(ran, 5000);
  EXPECT_LE(readers, 64u);
}

TEST(TaskBlockTest, BlockFreedAfterItsOwnerExitedStaysValid) {
  // A block goes back to the thread that carved it, even when that thread
  // is gone: its lists stay in the registry for the next thread to adopt.
  std::unique_ptr<rt::Task> orphan;
  int ran = 0;
  std::thread([&] {
    orphan = std::make_unique<rt::Task>();
    orphan->body = [&ran] { ++ran; };
  }).join();
  orphan->body();
  orphan.reset();
  std::thread([&] {
    for (int i = 0; i < 64; ++i) {
      auto task = std::make_unique<rt::Task>();
      task->body = [&ran] { ++ran; };
      task->body();
    }
  }).join();
  EXPECT_EQ(ran, 65);
}

TEST(TaskPoolTest, StealingFindsWorkAcrossQueues) {
  rt::TaskPool pool(4);
  int executed = 0;
  auto t = std::make_unique<rt::Task>();
  rt::TaskContext parent;
  t->body = [&] { ++executed; };
  t->parent = &parent;
  EXPECT_EQ(pool.push(/*tid=*/0, std::move(t)), nullptr)
      << "push below capacity must not reject";
  EXPECT_EQ(pool.outstanding(), 1);
  // A different member steals it.
  rt::Counters counters;
  auto stolen = pool.take(/*tid=*/3, counters);
  ASSERT_NE(stolen, nullptr);
  stolen->body();
  pool.mark_finished();
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(pool.outstanding(), 0);
  EXPECT_EQ(pool.take(1, counters), nullptr);
  EXPECT_EQ(counters.value(rt::Metric::kTasksStolen), 1u);
  EXPECT_EQ(counters.value(rt::Metric::kStealAttempts), 1u);
}

}  // namespace
}  // namespace zomp
