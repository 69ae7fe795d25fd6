#include "runtime/task.h"

#include <algorithm>
#include <bit>
#include <cstring>

// Under AddressSanitizer free blocks are poisoned, so a use-after-free of a
// pooled task still reports; elsewhere the macros compile to nothing.
#include <sanitizer/asan_interface.h>

#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace zomp::rt {

// -- Block pool ---------------------------------------------------------------

namespace {

constexpr std::size_t kBlockAlign = alignof(std::max_align_t);

constexpr std::size_t round_up(std::size_t n) {
  return (n + kBlockAlign - 1) / kBlockAlign * kBlockAlign;
}

/// A free block's payload: the link of whichever list holds it.
struct FreeBlock {
  FreeBlock* next;
};

struct BlockCache;

/// The one-word header in front of every payload, padded so payloads stay
/// max-aligned: the cache the block returns to.
struct alignas(kBlockAlign) BlockHeader {
  BlockCache* owner;
};

constexpr std::size_t kPayloadBytes[kBlockKinds] = {
    round_up(sizeof(Task)), round_up(sizeof(DepNode)), 16, 32, 64, 128, 256,
    512, 1024, 2048, 4096};
static_assert(kPayloadBytes[kBlockKinds - 1] == kMaxPooledArray);

constexpr BlockKind array_kind(std::size_t bytes) {
  const std::size_t cls =
      bytes <= 16 ? 0 : static_cast<std::size_t>(std::bit_width(bytes - 1)) - 4;
  return static_cast<BlockKind>(static_cast<u32>(BlockKind::kFirstArray) + cls);
}

/// Slab sizing: a cache's first slab is about kMinSlabBytes and each later
/// one carves as many blocks as the cache already owns, up to about
/// kMaxSlabBytes — so a thread that makes a few tasks keeps a few blocks,
/// and one that keeps tens of thousands live reaches them in a handful of
/// allocations.
constexpr std::size_t kMinSlabBytes = 4096;
constexpr std::size_t kMaxSlabBytes = 256 * 1024;

/// One thread's blocks of one kind. Slabs are never freed: every block of
/// one is either live or on some cache's lists.
struct BlockCache {
  FreeBlock* local = nullptr;  ///< owner only
  std::size_t owned = 0;       ///< blocks carved so far (owner only)
  /// Blocks other threads freed: CAS-pushed by them, taken whole by the
  /// owner.
  alignas(kCacheLine) std::atomic<FreeBlock*> returned{nullptr};
};

struct alignas(kCacheLine) ThreadBlocks {
  BlockCache caches[kBlockKinds];
  ThreadBlocks* next_spare = nullptr;  ///< registry link while unowned
};

/// Never freed: caches outlive their threads, and a thread that exits
/// leaves its ThreadBlocks here for the next one to adopt.
struct BlockRegistry {
  std::mutex mu;
  ThreadBlocks* spare = nullptr;
};

BlockRegistry& block_registry() {
  static BlockRegistry* r = new BlockRegistry();
  return *r;
}

thread_local ThreadBlocks* tls_blocks = nullptr;
thread_local bool tls_blocks_retired = false;

/// Hands the thread's ThreadBlocks back to the registry at thread exit.
/// Built on first touch, which registers the destructor.
struct ThreadBlocksLease {
  ThreadBlocksLease() = default;
  ThreadBlocksLease(const ThreadBlocksLease&) = delete;
  ThreadBlocksLease& operator=(const ThreadBlocksLease&) = delete;
  bool taken = false;
  ~ThreadBlocksLease() {
    tls_blocks_retired = true;
    ThreadBlocks* blocks = std::exchange(tls_blocks, nullptr);
    if (blocks == nullptr) return;
    BlockRegistry& r = block_registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    blocks->next_spare = r.spare;
    r.spare = blocks;
  }
};
thread_local ThreadBlocksLease tls_lease;

ThreadBlocks& adopt_thread_blocks() {
  BlockRegistry& r = block_registry();
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    if (r.spare != nullptr) {
      tls_blocks = r.spare;
      r.spare = r.spare->next_spare;
    }
  }
  if (tls_blocks == nullptr) tls_blocks = new ThreadBlocks();
  // A thread already past its thread_local destructors keeps what it took.
  if (!tls_blocks_retired) tls_lease.taken = true;
  return *tls_blocks;
}

/// Poisons all of a free block's payload but its link.
void poison_payload(FreeBlock* block, std::size_t payload) {
  ASAN_POISON_MEMORY_REGION(block + 1, payload - sizeof(FreeBlock));
}

FreeBlock* refill(BlockCache& cache, std::size_t payload) {
  const std::size_t stride = sizeof(BlockHeader) + payload;
  const std::size_t n =
      std::clamp(cache.owned, std::max<std::size_t>(1, kMinSlabBytes / stride),
                 std::max<std::size_t>(1, kMaxSlabBytes / stride));
  auto* slab = static_cast<unsigned char*>(::operator new(n * stride));
  cache.owned += n;
  FreeBlock* head = nullptr;
  for (std::size_t i = n; i-- > 0;) {
    unsigned char* at = slab + i * stride;
    ::new (static_cast<void*>(at)) BlockHeader{&cache};
    head = ::new (static_cast<void*>(at + sizeof(BlockHeader))) FreeBlock{head};
    poison_payload(head, payload);
  }
  return head;
}

}  // namespace

void* block_alloc(BlockKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  ThreadBlocks& blocks =
      tls_blocks != nullptr ? *tls_blocks : adopt_thread_blocks();
  BlockCache& cache = blocks.caches[k];
  FreeBlock* block = cache.local;
  if (block == nullptr) {
    block = cache.returned.exchange(nullptr, std::memory_order_acquire);
    if (block == nullptr) block = refill(cache, kPayloadBytes[k]);
  }
  ASAN_UNPOISON_MEMORY_REGION(block, kPayloadBytes[k]);
  cache.local = block->next;
  return block;
}

void block_free(BlockKind kind, void* p) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  auto* header = reinterpret_cast<BlockHeader*>(static_cast<unsigned char*>(p) -
                                                sizeof(BlockHeader));
  BlockCache* owner = header->owner;
  auto* block = ::new (p) FreeBlock{nullptr};
  poison_payload(block, kPayloadBytes[k]);
  if (tls_blocks != nullptr && owner == &tls_blocks->caches[k]) {
    block->next = owner->local;
    owner->local = block;
    return;
  }
  // Push-only from here; the owner takes the whole stack with one exchange,
  // so a CAS that succeeds always links onto the current head (no ABA).
  FreeBlock* head = owner->returned.load(std::memory_order_relaxed);
  do {
    block->next = head;
  } while (!owner->returned.compare_exchange_weak(
      head, block, std::memory_order_release, std::memory_order_relaxed));
}

void* array_alloc(std::size_t bytes) {
  if (bytes > kMaxPooledArray) return ::operator new(bytes);
  return block_alloc(array_kind(bytes));
}

void array_free(void* p, std::size_t bytes) noexcept {
  if (bytes > kMaxPooledArray) {
    ::operator delete(p);
    return;
  }
  block_free(array_kind(bytes), p);
}

// -- Bodies and dependence entries --------------------------------------------

void TaskBody::emplace_pack(void (*fn)(void*), const void* arg,
                            std::size_t size) {
  constexpr std::size_t kFnAt = kInlineBytes - sizeof fn;
  if (size <= kFnAt) {
    // The pack at the front, max-aligned; the function pointer in the tail.
    if (size > 0) std::memcpy(storage_, arg, size);
    std::memcpy(storage_ + kFnAt, &fn, sizeof fn);
    invoke_ = [](void* s) {
      void (*f)(void*);
      std::memcpy(&f, static_cast<unsigned char*>(s) + kFnAt, sizeof f);
      f(s);
    };
    return;
  }
  const auto* bytes = static_cast<const unsigned char*>(arg);
  emplace([fn, pack = std::vector<unsigned char>(bytes, bytes + size)]() mutable {
    fn(pack.data());
  });
}

void DepEntry::add_reader(NodeRef node) {
  if (readers.size() == readers.capacity() && !readers.empty()) {
    readers.erase(std::remove_if(readers.begin(), readers.end(),
                                 [](const NodeRef& r) { return r->finished(); }),
                  readers.end());
    if (readers.size() > readers.capacity() / 2) {
      readers.reserve(2 * readers.capacity());
    }
  }
  readers.push_back(std::move(node));
}

// -- TaskPool -------------------------------------------------------------------

TaskPool::TaskPool(i32 members) {
  queues_.reserve(static_cast<std::size_t>(members));
  for (i32 i = 0; i < members; ++i) {
    queues_.push_back(std::make_unique<WorkStealingDeque>());
  }
}

TaskPool::~TaskPool() {
  // Normal joins drain every deque before the team dies, but reclaim any
  // stragglers so teardown never leaks parked tasks (the deque slots hold
  // raw pointers the unique_ptr wrapper released).
  for (auto& queue : queues_) {
    while (Task* task = queue->pop()) delete task;
  }
}

std::unique_ptr<Task> TaskPool::push(i32 tid, std::unique_ptr<Task> task,
                                     bool* was_empty) {
  ZOMP_CHECK(tid >= 0 && tid < static_cast<i32>(queues_.size()),
             "task push from non-member thread");
  // Count before publishing: a thief must never observe a task whose
  // completion could drop `outstanding` below zero. `queued` seq_cst: that
  // increment is the state change the join barrier's WaitGate park keys on
  // (see queued()), so it must land in the seq_cst total order before the
  // waker's parked-flag load.
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const bool first = queued_.fetch_add(1, std::memory_order_seq_cst) == 0;
  if (queues_[static_cast<std::size_t>(tid)]->push(task.get())) {
    task.release();  // ownership parked in the deque until pop/steal
    if (was_empty != nullptr) *was_empty = first;
    return nullptr;
  }
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  return task;  // deque full: caller executes inline
}

std::unique_ptr<Task> TaskPool::take(i32 tid, Counters& counters) {
  const auto n = static_cast<i32>(queues_.size());
  ZOMP_CHECK(tid >= 0 && tid < n, "task take from non-member thread");
  // Own deque first, LIFO for locality.
  if (Task* task = queues_[static_cast<std::size_t>(tid)]->pop()) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return std::unique_ptr<Task>(task);
  }
  if (n <= 1) return nullptr;
  // Steal FIFO from siblings around the ring, starting at a per-member
  // golden-ratio-hashed offset instead of tid+1: under single-producer
  // fan-out a fixed start makes every idle thief hammer the same victim's
  // top CAS in lockstep (convoying), and the stagger fans them out. A lost
  // CAS race just moves on to the next victim; the caller's retry loop
  // provides the backoff.
  const i32 start =
      tid + 1 +
      static_cast<i32>((static_cast<u32>(tid) * 0x9E3779B9u) %
                       static_cast<u32>(n));
  for (i32 k = 0; k < n; ++k) {
    const i32 victim = (start + k) % n;
    if (victim == tid) continue;
    WorkStealingDeque& q = *queues_[static_cast<std::size_t>(victim)];
    if (q.maybe_empty()) continue;
    counters.add(Metric::kStealAttempts);
    trace_emit(TraceEv::kStealAttempt, victim);
    bool lost = false;
    if (Task* task = q.steal(&lost)) {
      counters.add(Metric::kTasksStolen);
      trace_emit(TraceEv::kStealSuccess, victim);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return std::unique_ptr<Task>(task);
    }
    if (lost) counters.add(Metric::kStealLost);
  }
  return nullptr;
}

}  // namespace zomp::rt
