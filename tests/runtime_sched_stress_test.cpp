// Stress tests for the work-stealing scheduler substrate (PR 1 tentpole):
// task storms across the steal path, nested parallelism inside tasks,
// taskwait/taskgroup ordering under contention, deque-overflow inline
// execution, and a randomized worksharing sweep that checks the
// exactly-once invariant for every schedule kind. Designed to run under
// ThreadSanitizer (CI's Debug+TSan job); keep the iteration counts modest.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

namespace zomp {
namespace {

TEST(SchedStressTest, SingleProducerStormIsFullyStolen) {
  // All tasks are spawned by member 0, which then refuses to execute any of
  // them: every completion must come from another member's steal. This pins
  // the thief side of the deque (CAS on top) under real contention.
  constexpr int kTasks = 512;
  constexpr int kThreads = 4;
  std::atomic<int> done{0};
  std::atomic<int> stolen{0};
  parallel(
      [&] {
        if (thread_num() == 0) {
          for (int i = 0; i < kTasks; ++i) {
            task([&] {
              if (thread_num() != 0) stolen.fetch_add(1, std::memory_order_relaxed);
              done.fetch_add(1, std::memory_order_relaxed);
            });
          }
          // Wait for the thieves without helping (yield, don't run tasks):
          // the members parked in the region-end barrier drain the pool.
          while (done.load(std::memory_order_acquire) < kTasks) {
            std::this_thread::yield();
          }
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(done.load(), kTasks);
  // Member 0 never ran a task body after spawning, so every task that ran on
  // a non-zero tid was stolen; the producer's own queue drained via steals.
  EXPECT_EQ(stolen.load(), kTasks) << "steal path must serve the whole storm";
}

TEST(SchedStressTest, AllMembersStormWithInterleavedConsumption) {
  // Every member produces and consumes concurrently (taskwait interleaved),
  // mixing owner pop and thief steal on every deque at once.
  constexpr int kPerMember = 300;
  constexpr int kThreads = 4;
  std::atomic<long> sum{0};
  long expect = 0;
  for (int i = 0; i < kPerMember; ++i) expect += i;
  parallel(
      [&] {
        for (int i = 0; i < kPerMember; ++i) {
          task([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
          if (i % 64 == 63) taskwait();
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(sum.load(), expect * kThreads);
}

TEST(SchedStressTest, DequeOverflowExecutesInline) {
  // More tasks than the bounded deque holds: the overflow must execute
  // inline at the creation point, never hang and never lose a task.
  const int kTasks = static_cast<int>(rt::WorkStealingDeque::kCapacity) + 500;
  std::atomic<int> done{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < kTasks; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(done.load(), kTasks);
}

TEST(SchedStressTest, NestedParallelInsideTasks) {
  // Tasks that fork their own (active) nested teams: ThreadState save/restore
  // and per-team task pools must not bleed into each other.
  set_max_active_levels(2);
  constexpr int kTasks = 16;
  constexpr int kInner = 2;
  std::atomic<int> inner_runs{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < kTasks; ++i) {
            task([&] {
              parallel([&] { inner_runs.fetch_add(1, std::memory_order_relaxed); },
                       ParallelOptions{kInner, true});
            });
          }
        });
      },
      ParallelOptions{2, true});
  set_max_active_levels(1);
  // Every nested region contributes >= 1 (its master) and <= kInner members.
  EXPECT_GE(inner_runs.load(), kTasks);
  EXPECT_LE(inner_runs.load(), kTasks * kInner);
}

TEST(SchedStressTest, TaskwaitOrdersChildrenUnderContention) {
  // After taskwait, every child spawned before it must have completed, even
  // while sibling members flood the deques with their own tasks.
  constexpr int kRounds = 20;
  constexpr int kChildren = 24;
  std::atomic<int> violations{0};
  parallel(
      [&] {
        for (int r = 0; r < kRounds; ++r) {
          std::atomic<int> mine{0};
          for (int c = 0; c < kChildren; ++c) {
            task([&mine] { mine.fetch_add(1, std::memory_order_relaxed); });
          }
          taskwait();
          if (mine.load(std::memory_order_acquire) != kChildren) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      ParallelOptions{4, true});
  EXPECT_EQ(violations.load(), 0);
}

TEST(SchedStressTest, TaskgroupWaitsForDeepDescendants) {
  // taskgroup must hold for grandchildren spawned from stolen children while
  // other members contend for the same deques.
  constexpr int kOuter = 12;
  std::atomic<int> leaves{0};
  std::atomic<int> bad_exits{0};
  parallel(
      [&] {
        single([&] {
          taskgroup([&] {
            for (int i = 0; i < kOuter; ++i) {
              task([&] {
                task([&] {
                  task([&] { leaves.fetch_add(1, std::memory_order_relaxed); });
                });
              });
            }
          });
          if (leaves.load(std::memory_order_acquire) != kOuter) {
            bad_exits.fetch_add(1);
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(bad_exits.load(), 0);
  EXPECT_EQ(leaves.load(), kOuter);
}

TEST(SchedStressTest, PassiveWaitPolicyStillDrainsStorms) {
  // The passive policy yields instead of spinning; the storm must still
  // complete and the policy round-trip must hold.
  const rt::WaitPolicy saved = get_wait_policy();
  set_wait_policy(rt::WaitPolicy::kPassive);
  EXPECT_EQ(get_wait_policy(), rt::WaitPolicy::kPassive);
  std::atomic<int> done{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < 256; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      },
      ParallelOptions{4, true});
  set_wait_policy(saved);
  EXPECT_EQ(done.load(), 256);
}

// -- Hot-team doorbell stress (PR 3 tentpole; pool.h S1.6) -------------------

TEST(SchedStressTest, DoorbellParkUnparkStress) {
  // Exercise every doorbell wake state under TSan: rung while spinning
  // (back-to-back forks), rung while condvar-parked (sleeps between forks
  // outlast any grace), and rung across wait-policy flips. The alternating
  // sizes force hot-team dismiss/rebuild churn through the lock-free idle
  // stack at the same time.
  const rt::WaitPolicy saved = get_wait_policy();
  for (int round = 0; round < 60; ++round) {
    if (round % 20 == 10) set_wait_policy(rt::WaitPolicy::kPassive);
    if (round % 20 == 0) set_wait_policy(rt::WaitPolicy::kActive);
    const int want = 2 + (round % 3);  // 2, 3, 4, 2, ...
    std::atomic<int> n{0};
    parallel([&] { n.fetch_add(1, std::memory_order_relaxed); },
             ParallelOptions{want, true});
    ASSERT_EQ(n.load(), want) << "round " << round;
    if (round % 10 == 9) {
      // Outlast the doorbell grace so workers are condvar-parked when the
      // next region rings them.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  set_wait_policy(saved);
}

TEST(SchedStressTest, HotTeamRapidFireWithWorkshareAndReduce) {
  // Tight region cadence on a recycled team: every region runs a nowait
  // dynamic loop and one allreduce, so the dispatch ring, the reduction
  // tree's monotonic sequence gates and the doorbell handoff all churn
  // together across 200 reuses.
  constexpr std::int64_t n = 129;
  constexpr std::int64_t want_sum = n * (n - 1) / 2;
  std::atomic<int> bad{0};
  for (int round = 0; round < 200; ++round) {
    parallel(
        [&] {
          std::int64_t local = 0;
          for_each(
              0, n, [&](std::int64_t i) { local += i; },
              ForOptions{{rt::ScheduleKind::kDynamic, 2}, /*nowait=*/true});
          if (allreduce(local, std::plus<>{}) != want_sum) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        },
        ParallelOptions{4, true});
    ASSERT_EQ(bad.load(), 0) << "round " << round;
  }
}

TEST(SchedStressTest, ConcurrentMastersEachKeepAHotTeam) {
  // Several user threads fork back-to-back regions concurrently: each
  // caches its own hot team, so the idle stack sees concurrent pop/push
  // from dismissals while doorbells ring on disjoint worker sets.
  constexpr int kMasters = 3;
  constexpr int kRounds = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> masters;
  masters.reserve(kMasters);
  for (int m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      for (int r = 0; r < kRounds; ++r) {
        const int want = 2 + ((m + r) % 2);
        std::atomic<int> n{0};
        parallel([&] { n.fetch_add(1, std::memory_order_relaxed); },
                 ParallelOptions{want, true});
        // Pool contention may shrink a team; it must never over-deliver
        // or lose the master.
        if (n.load() < 1 || n.load() > want) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : masters) t.join();
  EXPECT_EQ(bad.load(), 0);
}

struct RandomLoopCase {
  unsigned seed;
};

class RandomizedDispatchStress : public ::testing::TestWithParam<RandomLoopCase> {};

TEST_P(RandomizedDispatchStress, EveryIterationExactlyOnceAcrossSchedules) {
  // Randomized (schedule, chunk, threads, trip count) sweep over the batched
  // shared-cursor dispatch: each iteration of each loop must run exactly
  // once, under every schedule kind, including chunk sizes around the batch
  // boundaries.
  std::mt19937 rng(GetParam().seed);
  for (int round = 0; round < 12; ++round) {
    const rt::ScheduleKind kind = static_cast<rt::ScheduleKind>(
        std::uniform_int_distribution<int>(0, 3)(rng));  // static..auto
    const rt::i64 chunk = std::uniform_int_distribution<rt::i64>(
        kind == rt::ScheduleKind::kDynamic ? 1 : 0, 9)(rng);
    const int threads = std::uniform_int_distribution<int>(1, 6)(rng);
    const rt::i64 n = std::uniform_int_distribution<rt::i64>(0, 3000)(rng);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel(
        [&] {
          for_each(
              0, n,
              [&](rt::i64 i) {
                hits[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              ForOptions{{kind, chunk}, false});
        },
        ParallelOptions{threads, true});
    for (rt::i64 i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " kind=" << static_cast<int>(kind)
          << " chunk=" << chunk << " threads=" << threads << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedDispatchStress,
                         ::testing::Values(RandomLoopCase{11u},
                                           RandomLoopCase{23u},
                                           RandomLoopCase{42u}));

TEST(SchedStressTest, DynamicGuidedFullCoverageUnderNowaitPressure) {
  // Back-to-back nowait dynamic/guided loops (ring reuse) while tasks are in
  // flight: the dispatch ring and the task deques share members but no state.
  constexpr rt::i64 n = 400;
  constexpr int kLoops = 12;
  std::vector<std::atomic<int>> hits(n * kLoops);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  std::atomic<int> tasks_done{0};
  parallel(
      [&] {
        for (int l = 0; l < kLoops; ++l) {
          task([&] { tasks_done.fetch_add(1, std::memory_order_relaxed); });
          const rt::ScheduleKind kind = (l % 2 == 0)
                                            ? rt::ScheduleKind::kDynamic
                                            : rt::ScheduleKind::kGuided;
          for_each(
              0, n,
              [&](rt::i64 i) {
                hits[static_cast<std::size_t>(l * n + i)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              ForOptions{{kind, 1}, /*nowait=*/true});
        }
        barrier();
      },
      ParallelOptions{4, true});
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
  EXPECT_EQ(tasks_done.load(), 4 * kLoops);
}

// ---------------------------------------------------------------------------
// Reduction subsystem stress (runtime/reduce.h, the PR's tree-combine path).
// All of these must stay TSan-clean: the tree's token protocol, the slot
// reuse gate and the broadcast double-buffer are exactly the state a data
// race would corrupt.
// ---------------------------------------------------------------------------

TEST(SchedStressTest, BackToBackAllreducesWithoutBarriers) {
  // Consecutive rendezvous with no intervening team barrier: construct k+1's
  // deposits chase construct k's combine through the done_seq gate, and the
  // broadcast buffers alternate by parity. Any reuse race shows up as a
  // wrong sum (or a TSan report).
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<int> mismatches{0};
  parallel(
      [&] {
        const long tid = thread_num();
        for (long r = 0; r < kRounds; ++r) {
          const long all = allreduce(tid + 1 + r, std::plus<>{});
          const long want =
              kThreads * (kThreads + 1) / 2 + kThreads * r;
          if (all != want) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SchedStressTest, ReduceEachUnderDynamicScheduleStress) {
  // reduce_each = nowait dynamic loop + one tree rendezvous per round; the
  // dispatch ring and the reduction slots recycle together.
  constexpr int kThreads = 8;
  constexpr rt::i64 n = 5000;
  constexpr rt::i64 want = n * (n - 1) / 2;
  std::atomic<int> mismatches{0};
  parallel(
      [&] {
        for (int round = 0; round < 25; ++round) {
          const rt::i64 s = reduce_each(
              0, n, rt::i64{0}, std::plus<>{},
              [](rt::i64 i) { return i; },
              ForOptions{{rt::ScheduleKind::kDynamic, 7}, false});
          if (s != want) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SchedStressTest, BackToBackWideReductionsWithoutBarriers) {
  // A partial wider than a slot is read in place from its owner's buffer,
  // so a non-winner must not return, and refill that buffer for the next
  // round, before the instance's last fold. Rounds run back to back with
  // no barrier between them, and the winner checks exact sums every round.
  struct Wide {
    std::int64_t v[16];  // 128 bytes > ReductionTree::kSlotBytes
  };
  static_assert(sizeof(Wide) > rt::ReductionTree::kSlotBytes);
  static constexpr zomp_ident_t kLoc = {__FILE__, "reduction", __LINE__};
  constexpr std::int64_t kRounds = 20000;
  for (const std::int64_t threads : {3, 4}) {
    std::atomic<int> mismatches{0};
    parallel(
        [&] {
          const std::int64_t tid = thread_num();
          const auto add = [](void* lhs, const void* rhs) {
            auto* x = static_cast<Wide*>(lhs);
            const auto* y = static_cast<const Wide*>(rhs);
            for (int k = 0; k < 16; ++k) x->v[k] += y->v[k];
          };
          Wide mine;
          for (std::int64_t r = 0; r < kRounds; ++r) {
            for (int k = 0; k < 16; ++k) mine.v[k] = (tid + 1) * (r + 1) + k;
            if (!zomp_reduce(&kLoc, static_cast<std::int32_t>(tid), &mine,
                             sizeof(mine), add)) {
              continue;
            }
            for (int k = 0; k < 16; ++k) {
              const std::int64_t want =
                  threads * (threads + 1) / 2 * (r + 1) + threads * k;
              if (mine.v[k] != want) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        },
        ParallelOptions{static_cast<rt::i32>(threads), true});
    EXPECT_EQ(mismatches.load(), 0) << threads << " threads";
  }
}

TEST(SchedStressTest, WideReductionBroadcastReachesEveryMember) {
  // A payload wider than a slot's inline capacity is read in place from
  // its owner's buffer; the allreduce hands the result to every member
  // through the team's broadcast buffer, which the winner grows to fit,
  // and still combines exactly once per member.
  struct Big {
    std::int64_t v[16];  // 128 bytes > ReductionTree::kSlotBytes
  };
  static_assert(sizeof(Big) > rt::ReductionTree::kSlotBytes);
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  parallel(
      [&] {
        for (int r = 0; r < 60; ++r) {
          Big mine{};
          for (int k = 0; k < 16; ++k) {
            mine.v[k] = (thread_num() + 1) * (k + 1);
          }
          const Big all = allreduce(mine, [](Big x, const Big& y) {
            for (int k = 0; k < 16; ++k) x.v[k] += y.v[k];
            return x;
          });
          for (int k = 0; k < 16; ++k) {
            if (all.v[k] != 10 * (k + 1)) {  // sum of tids+1 = 10 for 4 threads
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SchedStressTest, NestedParallelBetweenReductionsKeepsSequence) {
  // A nested fork's Team constructor zeroes the member's red_seq; on return
  // the outer region must resume its reduction sequence where it left off
  // (pool.cpp SavedBinding). A rewound sequence would satisfy the tree's
  // token waits with a previous construct's stale partials — or deadlock
  // when only some members nested.
  set_max_active_levels(2);
  constexpr long kThreads = 4;
  std::atomic<int> mismatches{0};
  parallel(
      [&] {
        for (long r = 0; r < 10; ++r) {
          const long a = allreduce(long(thread_num()) + 1, std::plus<>{});
          if (a != kThreads * (kThreads + 1) / 2) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          parallel(
              [&] {
                const long inner = allreduce(long{1}, std::plus<>{});
                if (inner != num_threads()) {
                  mismatches.fetch_add(1, std::memory_order_relaxed);
                }
              },
              ParallelOptions{2, true});
          const long b = allreduce(long(thread_num()) + 1 + r, std::plus<>{});
          if (b != kThreads * (kThreads + 1) / 2 + kThreads * r) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      ParallelOptions{static_cast<rt::i32>(kThreads), true});
  set_max_active_levels(1);
  EXPECT_EQ(mismatches.load(), 0);
}

// -- Task-graph stress (depend/taskgroup/taskloop, DESIGN.md S1.7) -----------

TEST(TaskGraphStressTest, DiamondDependencePattern) {
  // A -> {B, C} -> D, repeated: A must complete before B/C start, both
  // before D. B and C race — only the declared edges order anything.
  constexpr int kRounds = 60;
  std::atomic<int> violations{0};
  parallel(
      [&] {
        single([&] {
          for (int r = 0; r < kRounds; ++r) {
            int x = 0, y = 0;  // dependence tokens (addresses only)
            std::atomic<int> a_done{0}, bc_done{0};
            task_depend({dep_out(&x)}, [&] {
              a_done.store(1, std::memory_order_relaxed);
            });
            task_depend({dep_in(&x), dep_out(&y)}, [&] {
              if (a_done.load(std::memory_order_relaxed) != 1) violations++;
              bc_done.fetch_add(1, std::memory_order_relaxed);
            });
            // Second reader of x writes a DIFFERENT token, so B and C stay
            // concurrent; D fans in on both.
            int z = 0;
            task_depend({dep_in(&x), dep_out(&z)}, [&] {
              if (a_done.load(std::memory_order_relaxed) != 1) violations++;
              bc_done.fetch_add(1, std::memory_order_relaxed);
            });
            task_depend({dep_in(&y), dep_in(&z)}, [&] {
              if (bc_done.load(std::memory_order_relaxed) != 2) violations++;
            });
            taskwait();
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskGraphStressTest, LongInoutChainIsStrictlySerialised) {
  // inout-chained tasks may never overlap or reorder: without locks, the
  // value threads through the chain exactly once per link. TSan would flag
  // any missed happens-before edge on the unsynchronised accumulator.
  constexpr int kLinks = 400;
  constexpr long kMod = 1000003;  // keeps the affine chain in i64 range
  long acc = 0;  // deliberately NOT atomic: the chain is the only ordering
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < kLinks; ++i) {
            // Distinct affine links: composition does not commute, so any
            // reordering (not just a lost link) changes the result.
            task_depend({dep_inout(&acc)},
                        [&acc, i] { acc = (acc * 3 + i) % kMod; });
          }
          taskwait();
        });
      },
      ParallelOptions{4, true});
  long expect = 0;
  for (int i = 0; i < kLinks; ++i) expect = (expect * 3 + i) % kMod;
  EXPECT_EQ(acc, expect);
}

TEST(TaskGraphStressTest, FanInWaitsForAllPredecessors) {
  // K independent writers, one reader with in-deps on every address: the
  // reader must observe all K unsynchronised writes (edges are the only
  // happens-before), repeated under churn.
  constexpr int kWriters = 16;
  constexpr int kRounds = 30;
  std::atomic<int> violations{0};
  parallel(
      [&] {
        single([&] {
          for (int r = 0; r < kRounds; ++r) {
            long slot[kWriters] = {};
            std::vector<rt::DepSpec> fan;
            for (int w = 0; w < kWriters; ++w) {
              task_depend({dep_out(&slot[w])}, [&slot, w] { slot[w] = w + 1; });
              fan.push_back(dep_in(&slot[w]));
            }
            rt::ThreadState& ts = rt::current_thread();
            rt::TaskOpts opts;
            opts.deps = fan.data();
            opts.ndeps = static_cast<rt::i32>(fan.size());
            ts.team->task_create_ex(
                ts,
                [&] {
                  for (int w = 0; w < kWriters; ++w) {
                    if (slot[w] != w + 1) violations++;
                  }
                },
                opts);
            taskwait();
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskGraphStressTest, ReadersRunConcurrentlyBetweenWriters) {
  // writer -> N readers -> writer: the second writer must wait for every
  // reader (reader-set edges), and the readers must all see the first write.
  constexpr int kReaders = 12;
  constexpr int kRounds = 25;
  std::atomic<int> violations{0};
  parallel(
      [&] {
        single([&] {
          for (int r = 0; r < kRounds; ++r) {
            long v = 0;
            std::atomic<int> reads{0};
            task_depend({dep_out(&v)}, [&v] { v = 42; });
            for (int i = 0; i < kReaders; ++i) {
              task_depend({dep_in(&v)}, [&] {
                if (v != 42) violations++;
                reads.fetch_add(1, std::memory_order_relaxed);
              });
            }
            task_depend({dep_inout(&v)}, [&] {
              if (reads.load(std::memory_order_relaxed) != kReaders) violations++;
              v = 7;
            });
            taskwait();
            if (v != 7) violations++;
          }
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskGraphStressTest, DequeOverflowReleasesPendingSuccessors) {
  // More predecessor tasks than the bounded deque holds, each with a parked
  // successor: overflow executes predecessors inline at creation, which must
  // STILL release their successors (the rejected-task path calls the same
  // completion hook).
  const int kPairs = static_cast<int>(rt::WorkStealingDeque::kCapacity) + 200;
  std::vector<long> tokens(static_cast<std::size_t>(kPairs), 0);
  std::atomic<int> done{0};
  parallel(
      [&] {
        single([&] {
          for (int i = 0; i < kPairs; ++i) {
            long* t = &tokens[static_cast<std::size_t>(i)];
            task_depend({dep_out(t)}, [t] { *t = 1; });
            task_depend({dep_in(t)}, [t, &done] {
              if (*t == 1) done.fetch_add(1, std::memory_order_relaxed);
            });
          }
        });
      },
      ParallelOptions{2, true});
  EXPECT_EQ(done.load(), kPairs);
}

TEST(TaskGraphStressTest, ConcurrentTaskgroupsOnAllMembers) {
  // Every member opens its own taskgroup and nests tasks two levels deep;
  // groups are per-task-context state and must not cross-talk.
  constexpr int kThreads = 4;
  constexpr int kPerMember = 25;
  std::atomic<int> violations{0};
  parallel(
      [&] {
        std::atomic<int> mine{0};
        taskgroup([&] {
          for (int i = 0; i < kPerMember; ++i) {
            task([&mine] {
              task([&mine] { mine.fetch_add(1, std::memory_order_relaxed); });
            });
          }
        });
        if (mine.load(std::memory_order_relaxed) != kPerMember) violations++;
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskGraphStressTest, TaskloopChunksCoverExactlyOnce) {
  // taskloop under every chunking clause: each index incremented exactly
  // once, with concurrent taskloops from different members.
  constexpr rt::i64 kN = 600;
  for (const TaskloopOptions opts :
       {TaskloopOptions{0, 0}, TaskloopOptions{7, 0}, TaskloopOptions{0, 13},
        TaskloopOptions{1, 0}, TaskloopOptions{0, 1}}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel(
        [&] {
          single([&] {
            taskloop(
                rt::i64{0}, kN,
                [&](rt::i64 i) {
                  hits[static_cast<std::size_t>(i)].fetch_add(
                      1, std::memory_order_relaxed);
                },
                opts);
          });
        },
        ParallelOptions{4, true});
    for (rt::i64 i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " grainsize=" << opts.grainsize
          << " num_tasks=" << opts.num_tasks;
    }
  }
}

TEST(TaskGraphStressTest, BarrierParkWakesForLateTaskBurst) {
  // Workers reach the join barrier and condvar-park past the doorbell grace
  // (passive policy parks almost immediately) while the master sits in a
  // long serial phase, then floods tasks: parked waiters must wake and the
  // barrier must still drain everything. Exercises the WaitGate handshake
  // under TSan.
  const auto saved = get_wait_policy();
  set_wait_policy(rt::WaitPolicy::kPassive);
  constexpr int kTasks = 300;
  std::atomic<int> done{0};
  parallel(
      [&] {
        if (thread_num() == 0) {
          // Outlast every waiter's grace so they actually park.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          for (int i = 0; i < kTasks; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
        }
      },
      ParallelOptions{4, true});
  set_wait_policy(saved);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(TaskGraphStressTest, FinalTasksRunIncludedSubtrees) {
  // A final task's whole subtree executes undeferred on the encountering
  // thread; mixed with normal deferred siblings under contention.
  constexpr int kRounds = 40;
  std::atomic<int> subtree{0};
  std::atomic<int> wrong_thread{0};
  parallel(
      [&] {
        single([&] {
          const int creator = thread_num();
          for (int r = 0; r < kRounds; ++r) {
            task([&] { /* deferred noise */ });
            rt::ThreadState& ts = rt::current_thread();
            rt::TaskOpts opts;
            opts.final = true;
            ts.team->task_create_ex(
                ts,
                [&, creator] {
                  if (thread_num() != creator) wrong_thread++;
                  task([&, creator] {  // included: still inline, same thread
                    if (thread_num() != creator) wrong_thread++;
                    subtree.fetch_add(1, std::memory_order_relaxed);
                  });
                },
                opts);
          }
          taskwait();
        });
      },
      ParallelOptions{4, true});
  EXPECT_EQ(subtree.load(), kRounds);
  EXPECT_EQ(wrong_thread.load(), 0);
}

TEST(SchedStressTest, HotTeamRebindStress) {
  // TSan-checked churn over the affinity-aware hot cache: bind kinds, team
  // sizes, and nesting all alternate, so teams are recycled, rebuilt (bind
  // signature is part of the key), and rebound while workers park/unpark on
  // their doorbells. Allreduce checks every member took the right region.
  set_max_active_levels(2);
  const rt::BindKind kinds[] = {rt::BindKind::kUnset, rt::BindKind::kClose,
                                rt::BindKind::kSpread, rt::BindKind::kPrimary};
  std::atomic<int> mismatches{0};
  for (int r = 0; r < 120; ++r) {
    ParallelOptions opts;
    opts.num_threads = (r % 3) + 2;  // 2, 3, 4
    opts.proc_bind = kinds[r % 4];
    parallel(
        [&] {
          const int n = num_threads();
          if (allreduce(1, std::plus<>{}) != n) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          if (r % 5 == 0) {
            // Nested bound team from the (possibly bound) outer member:
            // exercises the per-level slots and partition inheritance.
            ParallelOptions inner;
            inner.num_threads = 2;
            inner.proc_bind = rt::BindKind::kSpread;
            parallel(
                [&] {
                  const int m = num_threads();
                  if (allreduce(1, std::plus<>{}) != m) {
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                  }
                },
                inner);
          }
        },
        opts);
  }
  set_max_active_levels(1);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SchedStressTest, ConcurrentMastersRebindIndependently) {
  // Three root threads churn bound teams concurrently: per-thread hot slots,
  // the idle stack, and sched_setaffinity caching must not cross-talk.
  auto churn = [](int seed, std::atomic<int>& mismatches) {
    const rt::BindKind kinds[] = {rt::BindKind::kClose, rt::BindKind::kSpread};
    for (int r = 0; r < 60; ++r) {
      ParallelOptions opts;
      opts.num_threads = ((r + seed) % 2) + 2;
      opts.proc_bind = kinds[(r + seed) % 2];
      parallel(
          [&] {
            const int n = num_threads();
            if (allreduce(1, std::plus<>{}) != n) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          },
          opts);
    }
  };
  std::atomic<int> mismatches{0};
  std::thread t1(churn, 0, std::ref(mismatches));
  std::thread t2(churn, 1, std::ref(mismatches));
  std::thread t3(churn, 2, std::ref(mismatches));
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// -- Steal path and taskloop bursts -------------------------------------------

TEST(SchedStressTest, StealTelemetryCountsAttemptsAndLostRaces) {
  // Single-producer storm with many thieves contending on one deque: the
  // per-thread steal counters (written only by their owner inside take)
  // must account for every stolen task, and lost-CAS retries can never
  // exceed attempts. This is the measurement the staggered steal-scan
  // starts exist to keep low — convoying thieves all losing the same CAS
  // shows up directly in steal_lost.
  constexpr int kTasks = 1024;
  constexpr int kThreads = 8;
  std::atomic<int> done{0};
  const rt::u64 attempts_before =
      rt::metrics_value(rt::Metric::kStealAttempts);
  const rt::u64 lost_before = rt::metrics_value(rt::Metric::kStealLost);
  const rt::u64 stolen_before = rt::metrics_value(rt::Metric::kTasksStolen);
  parallel(
      [&] {
        if (thread_num() == 0) {
          for (int i = 0; i < kTasks; ++i) {
            task([&] { done.fetch_add(1, std::memory_order_relaxed); });
          }
          while (done.load(std::memory_order_acquire) < kTasks) {
            std::this_thread::yield();
          }
        }
      },
      ParallelOptions{kThreads, true});
  EXPECT_EQ(done.load(), kTasks);
  const rt::u64 attempts =
      rt::metrics_value(rt::Metric::kStealAttempts) - attempts_before;
  const rt::u64 lost = rt::metrics_value(rt::Metric::kStealLost) - lost_before;
  const rt::u64 stolen =
      rt::metrics_value(rt::Metric::kTasksStolen) - stolen_before;
  EXPECT_GT(attempts, 0u)
      << "a yielding producer means every completion was a steal";
  EXPECT_LE(lost, attempts) << "lost CAS races are a subset of attempts";
  EXPECT_LE(stolen + lost, attempts)
      << "an attempt either steals, loses the CAS, or finds the deque empty";
}

TEST(SchedStressTest, TaskloopBurstWakesParkedWaiters) {
  // Regression for the maybe_empty pre-filter audit: on a spread-bound
  // team, waiters condvar-park in the join barrier past the doorbell grace,
  // then the single winner creates a taskloop burst in its own deque.
  // Parked waiters must wake to steal work they did not see published and
  // the barrier must drain everything — under TSan this also checks the
  // queued-count publication order against the park protocol.
  const auto saved = get_wait_policy();
  set_wait_policy(rt::WaitPolicy::kPassive);
  constexpr rt::i64 kN = 512;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kN));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.proc_bind = rt::BindKind::kSpread;
  parallel(
      [&] {
        single([&] {
          // Outlast the waiters' grace so they are parked when the burst
          // arrives.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          taskloop(
              rt::i64{0}, kN,
              [&](rt::i64 i) {
                hits[static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              TaskloopOptions{0, 32});
        });
      },
      opts);
  set_wait_policy(saved);
  for (rt::i64 i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(SchedStressTest, ConcurrentTeamsReduceIndependently) {
  // Two root threads fork separate teams that reduce simultaneously. The
  // retired protocol took one *global* named critical here, serialising the
  // teams; the per-team trees must neither serialise nor cross-talk.
  auto run = [](std::int64_t seed, std::atomic<int>& mismatches) {
    for (int r = 0; r < 40; ++r) {
      const std::int64_t s = parallel_reduce(
          rt::i64{0}, rt::i64{2000}, std::int64_t{0}, std::plus<>{},
          [&](rt::i64 i) { return i + seed; },
          ForOptions{{rt::ScheduleKind::kDynamic, 3}, false},
          ParallelOptions{4, true});
      const std::int64_t want = 2000 * 1999 / 2 + 2000 * seed;
      if (s != want) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::atomic<int> mismatches{0};
  std::thread t1(run, 1, std::ref(mismatches));
  std::thread t2(run, 1000, std::ref(mismatches));
  t1.join();
  t2.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SchedStressTest, DequeOverflowSharesDiscardHookWithCancellation) {
  // Overflowing tasks route through execute_task — the SAME completion hook
  // the cancellation discard rides — so once the taskgroup is cancelled,
  // even tasks the producer must run inline (deque full) skip their bodies
  // while keeping parent/group accounting. Regression for the earlier
  // overflow path that ran bodies unconditionally: under a cancelled group
  // that both executed discarded work and, with the accounting divergence,
  // could leave taskgroup_end waiting forever.
  rt::GlobalIcv::instance().set_cancellation(true);
  constexpr int kTasks = 3000;  // ~2x the bounded deque capacity (1024)
  std::atomic<int> ran{0};
  std::atomic<bool> gate{false};
  parallel(
      [&] {
        if (thread_num() == 0) {
          taskgroup([&] {
            // The first task is the oldest deque entry, so the lone worker's
            // first steal blocks on it: the backlog can only drain through
            // the producer's own overflow-inline path until the gate opens.
            task([&] {
              while (!gate.load(std::memory_order_acquire)) {
                std::this_thread::yield();
              }
            });
            for (int t = 0; t < kTasks; ++t) {
              task([&] { ran.fetch_add(1, std::memory_order_relaxed); });
            }
            // Cancel with the deque still full: everything queued must be
            // discarded at take time, by worker and producer alike.
            rt::ThreadState& ts = rt::current_thread();
            ts.team->cancel_taskgroup(ts);
            gate.store(true, std::memory_order_release);
          });
        }
      },
      ParallelOptions{2});
  // Overflow-inlined tasks before the cancel ran; the queued backlog (the
  // full deque, ~1024 tasks) was discarded. Completing at all proves the
  // discard kept the group counts balanced.
  EXPECT_GT(ran.load(), 0);
  EXPECT_LT(ran.load(), kTasks - 500);
  rt::GlobalIcv::instance().set_cancellation(false);

  // The shared hook left no residue: a fresh group runs everything.
  std::atomic<int> clean{0};
  parallel(
      [&] {
        if (thread_num() == 0) {
          taskgroup([&] {
            for (int t = 0; t < 32; ++t) {
              task([&] { clean.fetch_add(1, std::memory_order_relaxed); });
            }
          });
        }
      },
      ParallelOptions{2});
  EXPECT_EQ(clean.load(), 32);
}

}  // namespace
}  // namespace zomp
