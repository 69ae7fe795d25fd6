#include "runtime/reduce.h"

#include <bit>
#include <cstring>

namespace zomp::rt {

namespace {

/// Spins (with the wait-policy backoff) until `cell` reaches `target`.
void wait_at_least(const std::atomic<u64>& cell, u64 target) {
  Backoff backoff;
  while (cell.load(std::memory_order_acquire) < target) backoff.pause();
}

}  // namespace

ReductionTree::ReductionTree(i32 n)
    : n_(n), slots_(static_cast<std::size_t>(n)) {
  ZOMP_CHECK(n >= 1, "reduction tree needs at least one member");
  for (auto& cell : broadcast_) cell.resize(kSlotBytes);
}

bool ReductionTree::combine(i32 tid, u64 seq, void* data, std::size_t size,
                            ReduceCombineFn fn, void* ctx, bool broadcast) {
  ZOMP_CHECK(tid >= 0 && tid < n_, "reduction from non-member thread");
  if (n_ == 1) return true;  // data already is the combined value
  // A partial that fits is copied into the slot; a wider one is read in
  // place from its owner's buffer, whose address the slot carries.
  const bool wide = size > kSlotBytes;
  const u64 base = seq * kTokenStride;
  // Reuse gate: instance seq-1 must be fully combined before any slot of it
  // may be overwritten. The winner's release of done_seq_ happens-after every
  // combine read of the previous instance (each read flows up the tree into
  // the winner through an acquire of the publishing slot's token).
  wait_at_least(done_seq_, seq - 1);

  // Fold the partners of rounds 0, 1, ... into the private buffer: member
  // tid merges tid+1, tid+2, ... tid+2^(r-1) for r = ctz(tid) rounds, and
  // the winner (tid 0) walks 1, 2, 4, ... to the team's end. Round r's
  // partner publishes once its own subtree of height r is complete, so the
  // winner's wait chain is the log2(n) critical path.
  const i32 rounds = tid == 0 ? std::bit_width(static_cast<u32>(n_ - 1))
                               : std::countr_zero(static_cast<u32>(tid));
  for (i32 r = 0; r < rounds; ++r) {
    const i32 partner = tid + (i32{1} << r);
    if (partner >= n_) break;  // subtree truncated by team size
    Slot& ps = slots_[static_cast<std::size_t>(partner)];
    wait_at_least(ps.token, base + static_cast<u64>(r));
    const void* partial = ps.data;
    if (wide) std::memcpy(&partial, ps.data, sizeof partial);
    fn(ctx, data, partial);
  }

  if (tid == 0) {
    if (broadcast) {
      std::vector<unsigned char>& cell = broadcast_[seq & 1];
      if (cell.size() < size) cell.resize(size);
      std::memcpy(cell.data(), data, size);
      broadcast_seq_.store(seq, std::memory_order_release);
    }
    done_seq_.store(seq, std::memory_order_release);
    return true;
  }

  // Publish the finished subtree in one slot write.
  Slot& mine = slots_[static_cast<std::size_t>(tid)];
  if (wide) {
    std::memcpy(mine.data, &data, sizeof data);
  } else {
    std::memcpy(mine.data, data, size);
  }
  mine.token.store(base + static_cast<u64>(rounds), std::memory_order_release);

  if (broadcast) {
    // The winner publishes the result after its last fold, so a wide
    // buffer's readers are done too.
    wait_at_least(broadcast_seq_, seq);
    std::memcpy(data, broadcast_[seq & 1].data(), size);
  } else if (wide) {
    // Our buffer is read in place: it must outlive the instance's folds.
    wait_at_least(done_seq_, seq);
  }
  return false;
}

}  // namespace zomp::rt
