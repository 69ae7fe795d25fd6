// Ablation A3: runtime-primitive microbenchmarks, EPCC-style (the authors'
// institution publishes the classic OpenMP overhead suite; this is the zomp
// equivalent). Measures the primitives the NPB kernels lean on: fork/join,
// worksharing dispatch per schedule, reduction, critical sections, locks,
// and task spawn/drain/steal. The team barrier is timed by the benchmark
// suite's EPCC probe (bench/suite).
#include <benchmark/benchmark.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/runtime.h"

namespace {

/// Pure region-entry cost, EPCC syncbench style: an (almost) empty body
/// entered back-to-back on the hot-team + doorbell fast path. range(0):
/// team size.
void BM_ForkJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::atomic<int> sink{0};
  for (auto _ : state) {
    zomp::parallel([&] { sink.fetch_add(1, std::memory_order_relaxed); },
                   zomp::ParallelOptions{threads, true});
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
ZOMP_BENCHMARK(BM_ForkJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

/// Tiny `parallel for reduction` regions, the NPB short-region shape the
/// paper's overhead numbers hinge on: region entry + worksharing + one
/// packed reduction rendezvous dominate, not the 256-iteration body.
/// range(0): team size.
void BM_ParallelForTiny(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 256;
  const double want = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  for (auto _ : state) {
    const double total = zomp::parallel_reduce<double>(
        0, n, 0.0, std::plus<>{},
        [](std::int64_t i) { return static_cast<double>(i); },
        zomp::ForOptions{}, zomp::ParallelOptions{threads, true});
    if (total != want) state.SkipWithError("bad reduction result");
  }
  state.SetItemsProcessed(state.iterations() * n);
}
ZOMP_BENCHMARK(BM_ParallelForTiny)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

/// Cancellation-point cost in the BM_ParallelForTiny shape (the ≤2% budget
/// of DESIGN.md S10): the same tiny 256-iteration parallel-for, now with one
/// `omp cancellation point for` per iteration. range(0): 0 = no point (the
/// BM_ParallelForTiny baseline, re-measured here so the delta reads off one
/// run), 1 = point with OMP_CANCELLATION unset (the flag test must be all
/// the user pays), 2 = point with cancellation enabled (nothing cancels, so
/// this prices the enabled-but-idle check). range(1): team size.
/// BENCH_cancel.json: mode 1 must be within 2% of mode 0.
void BM_CancellationPointOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr std::int64_t n = 256;
  const double want = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  static constexpr zomp_ident_t kLoc{"micro_runtime.cpp", "cancellation point",
                                     0};
  zomp::rt::GlobalIcv::instance().set_cancellation(mode == 2);
  for (auto _ : state) {
    double total;
    if (mode == 0) {
      total = zomp::parallel_reduce<double>(
          0, n, 0.0, std::plus<>{},
          [](std::int64_t i) { return static_cast<double>(i); },
          zomp::ForOptions{}, zomp::ParallelOptions{threads, true});
    } else {
      total = zomp::parallel_reduce<double>(
          0, n, 0.0, std::plus<>{},
          [](std::int64_t i) {
            (void)zomp_cancellation_point(&kLoc, 0, ZOMP_CANCEL_LOOP);
            return static_cast<double>(i);
          },
          zomp::ForOptions{}, zomp::ParallelOptions{threads, true});
    }
    if (total != want) state.SkipWithError("bad reduction result");
  }
  zomp::rt::GlobalIcv::instance().set_cancellation(false);
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(mode == 0   ? "no-point"
                 : mode == 1 ? "point-icv-off"
                             : "point-icv-on");
}
ZOMP_BENCHMARK(BM_CancellationPointOverhead)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

void BM_WorksharingDispatch(benchmark::State& state) {
  // kind: 0 static, 1 dynamic, 2 guided; iterations fixed, chunk varies.
  const auto kind = static_cast<zomp::rt::ScheduleKind>(state.range(0));
  const auto chunk = static_cast<std::int64_t>(state.range(1));
  constexpr std::int64_t n = 1 << 14;
  std::vector<double> data(n, 1.0);
  for (auto _ : state) {
    zomp::parallel([&] {
      zomp::for_each(
          0, n, [&](std::int64_t i) { data[static_cast<std::size_t>(i)] *= 1.0000001; },
          zomp::ForOptions{{kind, chunk}, false});
    });
  }
  benchmark::DoNotOptimize(data[0]);
  state.SetLabel(zomp::rt::schedule_kind_name(kind));
}
ZOMP_BENCHMARK(BM_WorksharingDispatch)
    ->Args({0, 0})
    ->Args({1, 1})
    ->Args({1, 64})
    ->Args({2, 1})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(100);

void BM_Reduction(benchmark::State& state) {
  constexpr std::int64_t n = 1 << 14;
  for (auto _ : state) {
    const double s = zomp::parallel_reduce<double>(
        0, n, 0.0, std::plus<>{},
        [](std::int64_t i) { return static_cast<double>(i); });
    benchmark::DoNotOptimize(s);
  }
}
ZOMP_BENCHMARK(BM_Reduction)->Unit(benchmark::kMicrosecond)->Iterations(100);

/// Back-to-back in-region tree reductions, combine-overhead dominated (the
/// loop is tiny on purpose): one rendezvous per round, no lock.
/// range(0): team size.
void BM_ReductionCombine(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 1 << 10;
  constexpr int kRounds = 32;
  const double want = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  for (auto _ : state) {
    double sink = 0.0;
    zomp::parallel(
        [&] {
          for (int r = 0; r < kRounds; ++r) {
            const double s = zomp::reduce_each(
                std::int64_t{0}, n, 0.0, std::plus<>{},
                [](std::int64_t i) { return static_cast<double>(i); });
            if (zomp::thread_num() == 0) sink += s;
          }
        },
        zomp::ParallelOptions{threads, true});
    if (sink != want * kRounds) state.SkipWithError("bad reduction result");
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
ZOMP_BENCHMARK(BM_ReductionCombine)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(50);

// ---------------------------------------------------------------------------
// collapse(2) mandel-style loop: dynamic distribution of whole rows (what a
// non-collapsed `parallel for schedule(dynamic)` gives) vs the linearized
// pixel space the collapse(2) canonicalization lowers to — same
// de-linearization arithmetic (y = flat / w, x = flat % w) the backends
// emit. The flat space load-balances the ragged per-row cost of the
// escape-time iteration far better near the set.
// ---------------------------------------------------------------------------

std::int64_t mandel_pixel_cost(double cr, double ci, std::int64_t max_iter) {
  double zr = 0.0, zi = 0.0;
  std::int64_t it = 0;
  while (it < max_iter && zr * zr + zi * zi <= 4.0) {
    const double t = zr * zr - zi * zi + cr;
    zi = 2.0 * zr * zi + ci;
    zr = t;
    ++it;
  }
  return it;
}

/// range(0): 0 = rows (collapse(1) shape), 1 = linearized pixels
/// (collapse(2) shape). range(1): chunk of the dynamic schedule.
void BM_CollapseMandelStyle(benchmark::State& state) {
  const bool collapsed = state.range(0) == 1;
  const auto chunk = static_cast<std::int64_t>(state.range(1));
  constexpr std::int64_t w = 64, h = 64, max_iter = 256;
  const zomp::ForOptions opts{{zomp::rt::ScheduleKind::kDynamic, chunk},
                              false};
  for (auto _ : state) {
    std::int64_t checksum = 0;
    if (collapsed) {
      checksum = zomp::parallel_reduce(
          std::int64_t{0}, w * h, std::int64_t{0}, std::plus<>{},
          [&](std::int64_t flat) {
            const std::int64_t y = flat / w;  // the emitted de-linearization
            const std::int64_t x = flat % w;
            const double ci = -1.25 + 2.5 * static_cast<double>(y) / h;
            const double cr = -2.0 + 2.5 * static_cast<double>(x) / w;
            return mandel_pixel_cost(cr, ci, max_iter);
          },
          opts);
    } else {
      checksum = zomp::parallel_reduce(
          std::int64_t{0}, h, std::int64_t{0}, std::plus<>{},
          [&](std::int64_t y) {
            const double ci = -1.25 + 2.5 * static_cast<double>(y) / h;
            std::int64_t row = 0;
            for (std::int64_t x = 0; x < w; ++x) {
              const double cr = -2.0 + 2.5 * static_cast<double>(x) / w;
              row += mandel_pixel_cost(cr, ci, max_iter);
            }
            return row;
          },
          opts);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * w * h);
  state.SetLabel(collapsed ? "collapse2-flat" : "rows-only");
}
ZOMP_BENCHMARK(BM_CollapseMandelStyle)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 16})
    ->Args({1, 16})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(20);

void BM_CriticalThroughput(benchmark::State& state) {
  std::int64_t counter = 0;
  const int per_thread = 256;
  for (auto _ : state) {
    zomp::parallel([&] {
      for (int i = 0; i < per_thread; ++i) {
        zomp::critical([&] { ++counter; });
      }
    });
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(state.iterations() * per_thread);
}
ZOMP_BENCHMARK(BM_CriticalThroughput)->Unit(benchmark::kMicrosecond)->Iterations(50);

void BM_LockUncontended(benchmark::State& state) {
  zomp::rt::Lock lock;
  for (auto _ : state) {
    lock.set();
    lock.unset();
  }
}
ZOMP_BENCHMARK(BM_LockUncontended)->Iterations(1 << 16);

void BM_SpinLockUncontended(benchmark::State& state) {
  zomp::rt::SpinLock lock;
  for (auto _ : state) {
    lock.set();
    lock.unset();
  }
}
ZOMP_BENCHMARK(BM_SpinLockUncontended)->Iterations(1 << 16);

void BM_TaskSpawnDrain(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  std::atomic<int> done{0};
  for (auto _ : state) {
    done.store(0);
    zomp::parallel([&] {
      zomp::single([&] {
        for (int i = 0; i < tasks; ++i) {
          zomp::task([&] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      });
      // Implicit region barrier drains the task pool.
    });
    if (done.load() != tasks) state.SkipWithError("lost tasks");
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
ZOMP_BENCHMARK(BM_TaskSpawnDrain)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond)->Iterations(20);

std::unique_ptr<zomp::rt::Task> make_dummy_task(zomp::rt::TaskContext* parent) {
  auto t = std::make_unique<zomp::rt::Task>();
  t->body = [] {};
  t->parent = parent;
  return t;
}

/// Owner-side push/pop throughput on the lock-free deque, no contention: the
/// per-task queue cost every spawn pays. Tasks are preallocated and recycled
/// so the measurement isolates the queue operations from task allocation.
void BM_TaskQueueOwnerOps(benchmark::State& state) {
  constexpr int kBurst = 256;
  zomp::rt::TaskContext parent;
  zomp::rt::TaskPool pool(1);
  zomp::rt::Counters counters;
  std::vector<std::unique_ptr<zomp::rt::Task>> arena;
  arena.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) arena.push_back(make_dummy_task(&parent));
  for (auto _ : state) {
    for (const auto& task : arena) {
      std::unique_ptr<zomp::rt::Task> t(task.get());
      if (auto rejected = pool.push(0, std::move(t))) {
        rejected.release();  // kBurst < capacity, so this never fires
        state.SkipWithError("unexpected deque overflow");
      }
    }
    for (int i = 0; i < kBurst; ++i) {
      auto t = pool.take(0, counters);
      if (!t) {
        state.SkipWithError("queue lost a task");
        break;
      }
      pool.mark_finished();
      t.release();  // back to the arena; freed once by `arena` at teardown
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
ZOMP_BENCHMARK(BM_TaskQueueOwnerOps)->Unit(benchmark::kMicrosecond)->Iterations(2000);

/// Steal throughput under contention: one member's queue is pre-loaded and
/// `thieves` threads drain it through take() — the path the task-aware
/// barrier exercises. range(0): thieves.
void BM_TaskQueueStealDrain(benchmark::State& state) {
  const int thieves = static_cast<int>(state.range(0));
  constexpr int kTasks = 1024;  // == WorkStealingDeque::kCapacity
  zomp::rt::TaskContext parent;
  for (auto _ : state) {
    state.PauseTiming();
    auto pool = std::make_unique<zomp::rt::TaskPool>(thieves + 1);
    for (int i = 0; i < kTasks; ++i) {
      if (auto rejected = pool->push(0, make_dummy_task(&parent))) {
        state.SkipWithError("unexpected deque overflow");
      }
    }
    std::atomic<int> drained{0};
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(thieves));
    for (int t = 1; t <= thieves; ++t) {
      threads.emplace_back([&, t] {
        zomp::rt::Counters counters;
        for (;;) {
          if (auto task = pool->take(t, counters)) {
            pool->mark_finished();
            drained.fetch_add(1, std::memory_order_relaxed);
          } else if (pool->outstanding() == 0) {
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    if (drained.load() != kTasks) state.SkipWithError("lost tasks");
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
ZOMP_BENCHMARK(BM_TaskQueueStealDrain)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(50);

/// Concurrent spawn + steal: one producer pushes a task stream while
/// `thieves` consumers drain it through the steal path, all using the
/// runtime's backoff discipline — the shape of a `single`-producer task storm
/// inside a parallel region. Overflowing the bounded deque counts as an
/// inline execution, exactly as Team::task_create handles it.
/// range(0): thieves.
void BM_TaskSpawnStealThroughput(benchmark::State& state) {
  const int thieves = static_cast<int>(state.range(0));
  constexpr int kTasks = 4096;
  zomp::rt::TaskContext parent;
  for (auto _ : state) {
    auto pool = std::make_unique<zomp::rt::TaskPool>(thieves + 1);
    std::atomic<bool> producing{true};
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(thieves));
    for (int t = 1; t <= thieves; ++t) {
      threads.emplace_back([&, t] {
        zomp::rt::Backoff backoff;
        zomp::rt::Counters counters;
        for (;;) {
          if (auto task = pool->take(t, counters)) {
            pool->mark_finished();
            done.fetch_add(1, std::memory_order_relaxed);
            backoff.reset();
          } else if (!producing.load(std::memory_order_acquire) &&
                     pool->outstanding() == 0) {
            return;
          } else {
            backoff.pause();
          }
        }
      });
    }
    for (int i = 0; i < kTasks; ++i) {
      if (pool->push(0, make_dummy_task(&parent))) {
        done.fetch_add(1, std::memory_order_relaxed);  // inline on overflow
      }
    }
    producing.store(false, std::memory_order_release);
    zomp::rt::Counters counters;
    for (;;) {  // producer helps drain, like the join barrier
      if (auto task = pool->take(0, counters)) {
        pool->mark_finished();
        done.fetch_add(1, std::memory_order_relaxed);
      } else if (pool->outstanding() == 0) {
        break;
      }
    }
    for (auto& th : threads) th.join();
    if (done.load() != kTasks) state.SkipWithError("lost tasks");
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
ZOMP_BENCHMARK(BM_TaskSpawnStealThroughput)
    ->Arg(1)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(20);

/// Steal-heavy tasking through the public API: every task is produced by one
/// member inside `single`, so every execution on another member is a steal.
void BM_TaskStormSingleProducer(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  std::atomic<int> done{0};
  for (auto _ : state) {
    done.store(0);
    zomp::parallel([&] {
      zomp::single([&] {
        for (int i = 0; i < tasks; ++i) {
          zomp::task([&] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    });
    if (done.load() != tasks) state.SkipWithError("lost tasks");
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
ZOMP_BENCHMARK(BM_TaskStormSingleProducer)->Arg(512)->Unit(benchmark::kMicrosecond)->Iterations(20);

/// Dependence-layer overhead (DESIGN.md S1.7): an inout chain of N tasks is
/// the worst case for the depnode machinery — every task allocates a node,
/// draws one edge, parks, and is released by its predecessor, with zero
/// available parallelism to hide it. Compare against BM_TaskSpawnDrain (the
/// zero-dependence fast path) to read the per-edge cost.
void BM_TaskDependChain(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  zomp::set_num_threads(4);
  long acc = 0;
  for (auto _ : state) {
    zomp::parallel(
        [&] {
          zomp::single([&] {
            for (int i = 0; i < chain; ++i) {
              zomp::task_depend({zomp::dep_inout(&acc)}, [&acc] { ++acc; });
            }
            zomp::taskwait();
          });
        },
        zomp::ParallelOptions{4, true});
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * chain);
}
ZOMP_BENCHMARK(BM_TaskDependChain)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(20);

/// taskloop against the equivalent worksharing loop: same body, same range,
/// same team. The delta is the tasking substrate (chunk task creation +
/// implicit taskgroup) versus the static-schedule bounds math — the price a
/// user pays for choosing the tasking form of a balanced loop. range(0):
/// 0 = parallel for, 1 = taskloop (default chunking), 2 = taskloop
/// grainsize(64).
void BM_TaskloopVsParallelFor(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 1 << 14;
  constexpr int threads = 4;
  std::vector<std::int64_t> data(static_cast<std::size_t>(n), 1);
  std::atomic<long> sink{0};
  for (auto _ : state) {
    long total = 0;
    if (mode == 0) {
      total = zomp::parallel_reduce<long>(
          0, n, 0L, std::plus<>{},
          [&](std::int64_t i) {
            return static_cast<long>(data[static_cast<std::size_t>(i)] * i);
          },
          zomp::ForOptions{}, zomp::ParallelOptions{threads, true});
    } else {
      std::atomic<long> acc{0};
      zomp::parallel(
          [&] {
            zomp::single([&] {
              zomp::taskloop(
                  0, n,
                  [&](std::int64_t i) {
                    acc.fetch_add(
                        static_cast<long>(data[static_cast<std::size_t>(i)] * i),
                        std::memory_order_relaxed);
                  },
                  zomp::TaskloopOptions{mode == 2 ? 64 : 0, 0});
            });
          },
          zomp::ParallelOptions{threads, true});
      total = acc.load();
    }
    sink.store(total, std::memory_order_relaxed);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(mode == 0   ? "parallel-for"
                 : mode == 1 ? "taskloop-default"
                             : "taskloop-grainsize64");
}
ZOMP_BENCHMARK(BM_TaskloopVsParallelFor)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(50);

void BM_AtomicF64Add(benchmark::State& state) {
  double cell = 0.0;
  const int per_thread = 1024;
  for (auto _ : state) {
    zomp::parallel([&] {
      for (int i = 0; i < per_thread; ++i) zomp_atomic_add_f64(&cell, 1.0);
    });
  }
  benchmark::DoNotOptimize(cell);
  state.SetItemsProcessed(state.iterations() * per_thread);
}
ZOMP_BENCHMARK(BM_AtomicF64Add)->Unit(benchmark::kMicrosecond)->Iterations(50);

/// Region entry with thread binding (DESIGN.md S1.8): the hot-team path
/// with proc_bind(close) vs unbound. The first bound region computes the
/// placement and issues one sched_setaffinity per member; every re-arm
/// after that has an unchanged binding signature, so the mask application
/// is skipped and bound entry must track unbound entry — this bench is the
/// regression guard for that property (BENCH_affinity.json in CI).
/// range(0): 0 = unbound, 1 = proc_bind(close). range(1): team size.
///
/// Registered LAST, with every unbound config ordered before any bound one:
/// apply_place_mask has no inverse, so once a bound region pins the master
/// (and its workers), later regions in the same process inherit the
/// narrowed mask — ordering keeps both the unbound baselines and every
/// other benchmark in this binary unpinned.
void BM_ForkJoinBound(benchmark::State& state) {
  const bool bound = state.range(0) == 1;
  const int threads = static_cast<int>(state.range(1));
  std::atomic<int> sink{0};
  zomp::ParallelOptions opts;
  opts.num_threads = threads;
  opts.proc_bind =
      bound ? zomp::rt::BindKind::kClose : zomp::rt::BindKind::kFalse;
  for (auto _ : state) {
    zomp::parallel([&] { sink.fetch_add(1, std::memory_order_relaxed); },
                   opts);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(bound ? "proc_bind-close" : "unbound");
}
ZOMP_BENCHMARK(BM_ForkJoinBound)
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

}  // namespace

BENCHMARK_MAIN();
