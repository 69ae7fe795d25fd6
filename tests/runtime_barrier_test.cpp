// PhaseSync tests: per-member phase publication, payload visibility,
// whole-team phase waits, and cancel-word abandonment. The team barrier's
// round-ordering sweep lives in runtime_team_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/barrier.h"

namespace zomp::rt {
namespace {

// -- PhaseSync (DESIGN.md S11.2) ---------------------------------------------

TEST(PhaseSyncTest, PayloadPublishedBeforeTokenIsVisibleToAwaiter) {
  // Producer chains payload phases; the consumer must read each phase's
  // exact payload — a token visible before its payload would show stale
  // bytes here (and TSan would flag the unfenced copy).
  // Payload lifetime is bounded by the next publish to the same slot (in
  // algo kernels the region join provides that fence), so the consumer acks
  // each phase on its own slot before the producer overwrites.
  constexpr int kPhases = 2000;
  PhaseSync sync(2);
  std::thread producer([&] {
    for (u64 seq = 1; seq <= kPhases; ++seq) {
      const u64 payload = seq * 0x9e3779b97f4a7c15ull;
      sync.publish(0, seq, &payload, sizeof(payload));
      ASSERT_TRUE(sync.await(1, seq));  // consumer ack fences slot reuse
    }
  });
  for (u64 seq = 1; seq <= kPhases; ++seq) {
    u64 got = 0;
    ASSERT_TRUE(sync.await(0, seq, &got, sizeof(got)));
    ASSERT_EQ(got, seq * 0x9e3779b97f4a7c15ull) << "seq=" << seq;
    sync.publish(1, seq);
  }
  producer.join();
}

TEST(PhaseSyncTest, AwaitAllBlocksUntilEveryMemberArrives) {
  constexpr i32 kMembers = 8;
  constexpr int kRounds = 200;
  PhaseSync sync(kMembers);
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (i32 tid = 0; tid < kMembers; ++tid) {
    threads.emplace_back([&, tid] {
      for (int round = 1; round <= kRounds; ++round) {
        counter.fetch_add(1, std::memory_order_acq_rel);
        const u64 seq = static_cast<u64>(2 * round - 1);
        sync.publish(tid, seq);
        if (!sync.await_all(seq)) failures.fetch_add(1);
        if (counter.load(std::memory_order_acquire) < kMembers * round) {
          failures.fetch_add(1);
        }
        // Second edge separates the read from the next round's increments.
        sync.publish(tid, seq + 1);
        if (!sync.await_all(seq + 1)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter.load(), kMembers * kRounds);
}

TEST(PhaseSyncTest, AwaitOnSeqAlreadyPassedReturnsImmediately) {
  PhaseSync sync(1);
  const u64 payload = 0xabcdefull;
  sync.publish(0, 5, &payload, sizeof(payload));
  u64 got = 0;
  // Awaiting any seq <= the published token succeeds without blocking.
  EXPECT_TRUE(sync.await(0, 3, &got, sizeof(got)));
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(sync.await(0, 5, &got, sizeof(got)));
}

TEST(PhaseSyncTest, AwaitAbandonsWhenCancelBitRaised) {
  PhaseSync sync(2);
  std::atomic<i32> cancel{0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(0x2, std::memory_order_seq_cst);
  });
  // Member 1 never publishes; the await must return false once the watched
  // bit appears instead of spinning forever.
  u64 got = 0;
  EXPECT_FALSE(sync.await(1, 1, &got, sizeof(got), &cancel, 0x2));
  canceller.join();

  // A mask miss keeps waiting: raise the right bit from another thread.
  cancel.store(0, std::memory_order_seq_cst);
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const u64 payload = 99;
    sync.publish(1, 1, &payload, sizeof(payload));
  });
  EXPECT_TRUE(sync.await(1, 1, &got, sizeof(got), &cancel, 0x4));
  EXPECT_EQ(got, 99u);
  publisher.join();
}

TEST(PhaseSyncTest, AwaitAllAbandonsWhenCancelBitRaised) {
  PhaseSync sync(3);
  sync.publish(0, 1);
  sync.publish(2, 1);  // member 1 missing
  std::atomic<i32> cancel{0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.store(0x1, std::memory_order_seq_cst);
  });
  EXPECT_FALSE(sync.await_all(1, &cancel, 0x1));
  canceller.join();
}

TEST(PhaseSyncTest, SlotReuseAcrossManySeqsKeepsPayloadsDistinct) {
  // Tokens are monotonically increasing across the life of the structure
  // (hot-team rearm keeps the counter, never resets it); late awaiters on
  // old seqs still succeed and see the LATEST payload, which is the
  // documented contract — payload lifetime is bounded by the region join.
  PhaseSync sync(1);
  for (u64 seq = 1; seq <= 100; ++seq) {
    sync.publish(0, seq, &seq, sizeof(seq));
    u64 got = 0;
    ASSERT_TRUE(sync.await(0, seq, &got, sizeof(got)));
    ASSERT_EQ(got, seq);
  }
}

}  // namespace
}  // namespace zomp::rt
