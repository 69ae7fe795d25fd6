// Team reduction subsystem (DESIGN.md S1.2).
//
// Replaces the global `__zomp_reduction` named critical the seed lowered
// every reduction through: combining under one process-wide lock serialised
// *all* teams, and the construct needed two extra barriers just to publish
// the shared cell. Here each Team owns a ReductionTree — one cache-line
// slot per member — and a reduction is a single rendezvous:
//
//  * every member deposits its private partial into its own padded slot
//    (one release store, no shared-line ping-pong on the way in),
//  * partner slots combine pairwise per round, log2(nthreads) rounds deep
//    (member tid merges partners tid+1, tid+2, ... tid+2^(r-1) for
//    r = ctz(tid) rounds, then publishes its subtree for its consumer),
//  * the winner (tid 0) ends up holding the team-combined value and is the
//    one member told to fold it into the user's shared target — no lock at
//    all on the combine path.
//
// The rendezvous doubles as the construct's synchronisation: no member can
// observe a combined value before every member deposited, so the enclosing
// construct needs exactly one barrier-equivalent per reduction (the join
// barrier for `parallel ... reduction`, this rendezvous for the high-level
// allreduce), down from three in the seed protocol.
//
// A partial that fits a slot's inline bytes is copied into the slot. A wider
// one stays in its owner's buffer and the slot carries its address: the
// consumer folds it in place, so the owner waits until the winner has
// finished the instance before it returns (its buffer must outlive every
// read). Either way the tree folds in one fixed order, so any pack is
// bitwise repeatable at a fixed team size. Construct instances are
// identified by a per-member sequence number (same team-wide identity
// argument as DispatchSlot matching); a `done_seq` epoch gates slot reuse so
// back-to-back `nowait` reductions cannot overwrite a slot the previous
// combine is still reading.
//
// Every construct packs into ONE rendezvous: a directive with k >= 1
// reduction clauses (`reduction(+: a) reduction(max: b) ...`) costs one
// combine, not k. The directive engine marks the construct's combine run
// (Stmt::red_pack) and both backends deposit a single struct payload whose
// fields are the k partials (a single variable is a pack of one); the
// combine function applies each variable's operator to its own field.
// The payload is opaque to the tree: `size` and `fn` are simply those of
// the struct.
//
// The tree belongs to exactly one Team and survives hot-team recycling
// (pool.h) without any reset: instance sequence numbers are monotonic
// *across regions* — Team::rearm carries every member's red_seq forward —
// so tokens, done_seq and the broadcast parity simply keep counting. A
// token from a previous region can never satisfy a later instance's wait
// because later instances always carry strictly larger sequence numbers.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/common.h"

namespace zomp::rt {

/// Combines `*rhs` into `*lhs`; `ctx` carries caller state (the high-level
/// API passes the C++ functor, the C ABI passes the generated combine fn).
using ReduceCombineFn = void (*)(void* ctx, void* lhs, const void* rhs);

/// One reduction combining tree for a fixed-size team. Reusable across any
/// number of construct instances; instances are ordered by `seq`.
class ReductionTree {
 public:
  /// Inline payload capacity of one slot: token + data fill exactly one
  /// cache line. A larger value stays in its owner's buffer, and the slot
  /// carries its address.
  static constexpr std::size_t kSlotBytes = kCacheLine - sizeof(std::atomic<u64>);

  explicit ReductionTree(i32 n);

  ReductionTree(const ReductionTree&) = delete;
  ReductionTree& operator=(const ReductionTree&) = delete;

  /// Rendezvous for construct instance `seq` (strictly increasing, starting
  /// at 1; every member must pass the same value for the same construct).
  /// Combines every member's `data` (size bytes, trivially copyable) with
  /// `fn`. Returns true on exactly one member — the *winner*, whose `data`
  /// then holds the team-combined value and who is responsible for folding
  /// it into the construct's shared target. With `broadcast`, every member's
  /// `data` holds the combined value on return (allreduce).
  bool combine(i32 tid, u64 seq, void* data, std::size_t size,
               ReduceCombineFn fn, void* ctx, bool broadcast);

  i32 size() const { return n_; }

 private:
  /// Tokens encode (construct seq, tree round): a member that has combined
  /// its whole subtree of height r publishes seq * kTokenStride + r on its
  /// slot. 64 rounds cover any i32-sized team with room to spare.
  static constexpr u64 kTokenStride = 64;

  struct alignas(kCacheLine) Slot {
    std::atomic<u64> token{0};
    unsigned char data[kSlotBytes];
  };
  static_assert(sizeof(Slot) == kCacheLine, "slot must fill one cache line");

  const i32 n_;
  std::vector<Slot> slots_;

  /// Result area for allreduce, double-buffered by seq parity: readers of
  /// instance k finish before any member deposits for k+1, which the winner
  /// of k+1 must observe before it can write (or grow) buffer
  /// (k+1)&1 == (k-1)&1. Each starts one slot wide, so packs that fit a
  /// slot never allocate; the winner grows it for a wider pack.
  std::vector<unsigned char> broadcast_[2];
  alignas(kCacheLine) std::atomic<u64> broadcast_seq_{0};

  /// Highest fully-combined instance; deposits for seq wait for seq-1, and
  /// the owner of a wide partial waits for seq before it returns.
  alignas(kCacheLine) std::atomic<u64> done_seq_{0};
};

}  // namespace zomp::rt
