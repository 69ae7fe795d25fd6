#include "runtime/barrier.h"

namespace zomp::rt {

PhaseSync::PhaseSync(i32 n) : n_(n), slots_(static_cast<std::size_t>(n)) {
  ZOMP_CHECK(n >= 1, "phase sync needs at least one member");
}

void PhaseSync::publish(i32 member, u64 seq, const void* data,
                        std::size_t size) {
  ZOMP_CHECK(member >= 0 && member < n_, "phase member id out of range");
  ZOMP_CHECK(size <= kSlotBytes, "phase payload exceeds the inline slot");
  Slot& slot = slots_[static_cast<std::size_t>(member)];
  if (size > 0) std::memcpy(slot.data, data, size);
  // Release publishes the payload with the token; tokens are strictly
  // increasing per member, so an awaiter matching >= seq saw this store or
  // a later one (whose payload then supersedes — see the reuse contract in
  // the header).
  slot.token.store(seq, std::memory_order_release);
}

bool PhaseSync::await(i32 member, u64 seq, void* out, std::size_t size,
                      const std::atomic<i32>* cancel, i32 mask) const {
  ZOMP_CHECK(member >= 0 && member < n_, "phase member id out of range");
  ZOMP_CHECK(size <= kSlotBytes, "phase payload exceeds the inline slot");
  const Slot& slot = slots_[static_cast<std::size_t>(member)];
  Backoff backoff;
  while (slot.token.load(std::memory_order_acquire) < seq) {
    if (cancel != nullptr &&
        (cancel->load(std::memory_order_seq_cst) & mask) != 0) {
      return false;
    }
    backoff.pause();
  }
  if (out != nullptr && size > 0) std::memcpy(out, slot.data, size);
  return true;
}

bool PhaseSync::await_all(u64 seq, const std::atomic<i32>* cancel,
                          i32 mask) const {
  for (i32 m = 0; m < n_; ++m) {
    if (!await(m, seq, nullptr, 0, cancel, mask)) return false;
  }
  return true;
}

}  // namespace zomp::rt
