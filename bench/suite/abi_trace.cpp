// ABI interposer for zbench_traced (see abi_trace.h).
//
// Every wrapped call becomes a span in a per-thread buffer preallocated at the
// thread's first call, so recording takes no lock and never allocates. Spans
// nest per thread: a span's `child` field collects the time its children
// cover, and self time is its length minus that. The fork wrapper swaps in a
// trampoline microtask that opens one body span per member (zomp_fork_call
// ignores argc, so the trampoline gets its own argument array); the task
// wrapper prepends the real task function to the copied argument block so
// each task body gets its own span. Atomics are counted on every call and
// timed on one call in 64.
#include "abi_trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/abi.h"

extern "C" {
void __real_zomp_fork_call(const zomp_ident_t* loc, zomp_microtask_t fn,
                           std::int32_t argc, void** args);
void __real_zomp_for_static_init(const zomp_ident_t* loc, std::int32_t gtid,
                                 std::int64_t chunk, std::int64_t lo,
                                 std::int64_t hi, std::int64_t step,
                                 std::int64_t* plo, std::int64_t* phi,
                                 std::int64_t* pstride, std::int32_t* plast);
void __real_zomp_for_static_fini(const zomp_ident_t* loc, std::int32_t gtid);
void __real_zomp_static_range(const zomp_ident_t* loc, std::int32_t gtid,
                              std::int64_t lo, std::int64_t hi,
                              std::int64_t* plo, std::int64_t* phi,
                              std::int32_t* plast);
void __real_zomp_dispatch_init(const zomp_ident_t* loc, std::int32_t gtid,
                               std::int32_t sched_kind, std::int64_t chunk,
                               std::int64_t lo, std::int64_t hi,
                               std::int64_t step);
std::int32_t __real_zomp_dispatch_next(const zomp_ident_t* loc,
                                       std::int32_t gtid, std::int64_t* plo,
                                       std::int64_t* phi, std::int32_t* plast);
std::int32_t __real_zomp_barrier(const zomp_ident_t* loc, std::int32_t gtid);
std::int32_t __real_zomp_single(const zomp_ident_t* loc, std::int32_t gtid);
void __real_zomp_end_single(const zomp_ident_t* loc, std::int32_t gtid);
std::int32_t __real_zomp_reduce(const zomp_ident_t* loc, std::int32_t gtid,
                                void* data, std::int64_t size,
                                zomp_reduce_fn_t fn);
void __real_zomp_atomic_add_f64(double* addr, double value);
void __real_zomp_task_with_deps(const zomp_ident_t* loc, std::int32_t gtid,
                                void (*fn)(void* arg), const void* arg,
                                std::int64_t arg_size,
                                const zomp_depend_t* deps, std::int32_t ndeps,
                                std::int32_t flags, std::int32_t priority);
}

namespace zbench::trace {
namespace {

enum Layer : std::uint8_t {
  kSolve,        // master, whole solve; self time is serial code
  kFork,         // master, zomp_fork_call; self time is fork and join
  kBody,         // each member's share of a region; self time is compute
  kWorkshare,    // static init/fini/range, dispatch init/next
  kBarrier,
  kSingleClaim,  // zomp_single
  kSingleBody,   // the winning member, from zomp_single to zomp_end_single
  kReduce,
  kTaskSpawn,
  kTaskBody,
  kLayerCount,
};
constexpr const char* kLayerName[kLayerCount] = {
    "solve",   "fork",        "body",   "worksharing", "barrier",
    "single",  "single_body", "reduce", "task_spawn",  "task"};

constexpr std::uint32_t kNone = UINT32_MAX;
constexpr std::size_t kCapacity = std::size_t{1} << 18;  // spans per thread
constexpr int kMaxDepth = 64;
constexpr int kChromeSolves = 1;  // solves written to the Chrome trace
constexpr std::uint64_t kAtomicSampleMask = 63;

struct Span {
  std::uint64_t t0 = 0;     // ns since the process epoch
  std::uint64_t t1 = 0;
  std::uint64_t child = 0;  // ns covered by child spans
  const zomp_ident_t* site = nullptr;
  std::uint32_t parent = kNone;  // index in the same thread's buffer
  std::uint32_t region = kNone;  // fork instance the span belongs to
  std::uint16_t solve = 0;
  Layer layer = kSolve;
};

struct Open {
  std::uint32_t idx;
  std::uint64_t t0;
};

const auto g_epoch = std::chrono::steady_clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

std::atomic<bool> g_recording{false};
std::atomic<int> g_solve{0};
std::atomic<std::uint32_t> g_next_region{0};
int g_solves = 0;  // completed solves; master only

/// One thread's spans and counters. Only its own thread writes it; the master
/// reads it between solves, after the join that ends every region.
struct Recorder {
  std::vector<Span> spans;
  std::array<Open, kMaxDepth> stack{};
  int depth = 0;
  std::uint32_t region = kNone;
  std::uint64_t dropped = 0;
  std::uint64_t claims = 0;
  std::uint64_t claimed_iters = 0;
  std::uint64_t atomics = 0;
  std::uint64_t atomics_timed = 0;
  std::uint64_t atomic_ns = 0;

  Recorder() { spans.reserve(kCapacity); }

  void open(Layer layer, const zomp_ident_t* site, std::uint32_t span_region) {
    const std::uint64_t t = now_ns();
    std::uint32_t idx = kNone;
    if (spans.size() < kCapacity) {
      idx = static_cast<std::uint32_t>(spans.size());
      Span s;
      s.t0 = t;
      s.site = site;
      s.parent = depth > 0 ? stack[depth - 1].idx : kNone;
      s.region = span_region;
      s.solve = static_cast<std::uint16_t>(
          g_solve.load(std::memory_order_relaxed));
      s.layer = layer;
      spans.push_back(s);
    } else {
      ++dropped;
    }
    if (depth == kMaxDepth) {
      std::fprintf(stderr, "abi_trace: spans nested deeper than %d\n",
                   kMaxDepth);
      std::abort();
    }
    stack[depth++] = Open{idx, t};
  }

  void close() {
    const std::uint64_t t = now_ns();
    const Open o = stack[--depth];
    if (o.idx != kNone) spans[o.idx].t1 = t;
    if (depth > 0 && stack[depth - 1].idx != kNone) {
      spans[stack[depth - 1].idx].child += t - o.t0;
    }
  }

  void claim(std::int64_t lo, std::int64_t hi) {
    if (hi <= lo) return;
    ++claims;
    claimed_iters += static_cast<std::uint64_t>(hi - lo);
  }
};

std::mutex g_mu;
std::vector<std::unique_ptr<Recorder>> g_recorders;  // guarded by g_mu
thread_local Recorder* tl_recorder = nullptr;

Recorder& rec() {
  if (tl_recorder == nullptr) {
    auto r = std::make_unique<Recorder>();
    tl_recorder = r.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_recorders.push_back(std::move(r));
  }
  return *tl_recorder;
}

bool recording() { return g_recording.load(std::memory_order_relaxed); }

/// Span around one wrapped call; inert while not recording.
class Scoped {
 public:
  Scoped(Layer layer, const zomp_ident_t* site) {
    if (!recording()) return;
    r_ = &rec();
    r_->open(layer, site, r_->region);
  }
  ~Scoped() {
    if (r_ != nullptr) r_->close();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  Recorder* recorder() const { return r_; }

 private:
  Recorder* r_ = nullptr;
};

struct ForkCtx {
  zomp_microtask_t fn;
  void** args;
  const zomp_ident_t* site;
  std::uint32_t region;
};

void fork_trampoline(std::int32_t gtid, std::int32_t tid, void** targs) {
  const ForkCtx& ctx = *static_cast<const ForkCtx*>(targs[0]);
  Recorder& r = rec();
  const std::uint32_t outer = r.region;
  r.region = ctx.region;
  r.open(kBody, ctx.site, ctx.region);
  ctx.fn(gtid, tid, ctx.args);
  r.close();
  r.region = outer;
}

/// Prepended to each task's copied argument block.
struct TaskHeader {
  void (*fn)(void*);
  const zomp_ident_t* site;
};
static_assert(sizeof(TaskHeader) == 16, "keeps the argument block 16-aligned");

void task_trampoline(void* block) {
  TaskHeader h;
  std::memcpy(&h, block, sizeof h);
  Scoped span(kTaskBody, h.site);
  h.fn(static_cast<unsigned char*>(block) + sizeof h);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void write_json_string(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(*s) >= 0x20) std::fputc(*s, f);
  }
  std::fputc('"', f);
}

bool write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t t = 0; t < g_recorders.size(); ++t) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"thread %zu\"}}",
                 first ? "" : ",\n", t, t);
    first = false;
    for (const Span& s : g_recorders[t]->spans) {
      if (s.solve >= kChromeSolves) continue;
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                   "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"solve\":%u,\"parent\":%lld,\"self_us\":%.3f,"
                   "\"site\":",
                   t, kLayerName[s.layer], kLayerName[s.layer], s.t0 / 1e3,
                   (s.t1 - s.t0) / 1e3, static_cast<unsigned>(s.solve),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   (s.t1 - s.t0 - s.child) / 1e3);
      if (s.site != nullptr) {
        char site[256];
        std::snprintf(site, sizeof site, "%s:%d %s", s.site->file,
                      static_cast<int>(s.site->line), s.site->construct);
        write_json_string(f, site);
      } else {
        write_json_string(f, "");
      }
      std::fputs("}}", f);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace

void solve_begin(int solve) {
  g_solve.store(solve, std::memory_order_relaxed);
  g_recording.store(true, std::memory_order_relaxed);
  rec().open(kSolve, nullptr, kNone);
}

void solve_end() {
  rec().close();
  g_recording.store(false, std::memory_order_relaxed);
  ++g_solves;
}

bool has_room() {
  if (g_solves == 0) return true;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& r : g_recorders) {
    const std::size_t per_solve = r->spans.size() / g_solves + 1;
    if (r->spans.size() + 2 * per_solve > kCapacity) return false;
  }
  return true;
}

std::string finish(const std::string& chrome_path, int threads) {
  std::lock_guard<std::mutex> lock(g_mu);
  const int solves = std::max(g_solves, 1);
  const std::size_t nrec = g_recorders.size();

  std::vector<double> wall(solves, 0.0), serial(solves, 0.0);
  std::vector<std::array<double, kLayerCount>> self(solves);
  for (auto& a : self) a.fill(0.0);
  std::vector<double> forks(solves, 0.0);
  std::unordered_map<std::uint32_t, std::uint64_t> fork_t0;
  // Generated-code time per region and member (thread).
  std::unordered_map<std::uint32_t, std::vector<double>> compute;
  std::vector<std::array<std::uint64_t, kLayerCount>> count(nrec);
  std::uint64_t dropped = 0, claims = 0, claimed_iters = 0;
  std::uint64_t atomics = 0, atomics_timed = 0, atomic_ns = 0;

  for (std::size_t t = 0; t < nrec; ++t) {
    const Recorder& r = *g_recorders[t];
    count[t].fill(0);
    dropped += r.dropped;
    claims += r.claims;
    claimed_iters += r.claimed_iters;
    atomics += r.atomics;
    atomics_timed += r.atomics_timed;
    atomic_ns += r.atomic_ns;
    for (const Span& s : r.spans) {
      const double len = static_cast<double>(s.t1 - s.t0);
      const double own = len - static_cast<double>(s.child);
      ++count[t][s.layer];
      if (s.solve < solves) self[s.solve][s.layer] += own;
      switch (s.layer) {
        case kSolve:
          wall[s.solve] = len;
          serial[s.solve] = own;
          break;
        case kFork:
          fork_t0[s.region] = s.t0;
          forks[s.solve] += 1;
          break;
        case kBody:
        case kSingleBody:
        case kTaskBody: {
          if (s.region == kNone) break;  // a task run by the join barrier
          auto& members = compute[s.region];
          members.resize(nrec, -1.0);
          members[t] = std::max(members[t], 0.0) + own;
          break;
        }
        default:
          break;
      }
    }
  }

  std::vector<double> handoff_us;
  for (const auto& r : g_recorders) {
    for (const Span& s : r->spans) {
      if (s.layer != kBody) continue;
      const auto it = fork_t0.find(s.region);
      if (it != fork_t0.end()) handoff_us.push_back((s.t0 - it->second) / 1e3);
    }
  }
  std::vector<double> imbalance;
  for (const auto& [region, members] : compute) {
    double sum = 0.0, peak = 0.0;
    int n = 0;
    for (double c : members) {
      if (c < 0.0) continue;
      sum += c;
      peak = std::max(peak, c);
      ++n;
    }
    if (n > 1 && sum > 0.0) imbalance.push_back(peak / (sum / n) - 1.0);
  }

  // Atomic time is estimated from the timed sample and lies inside the
  // callers' self time, so it is moved out of compute.
  const double atomic_est =
      atomics_timed ? static_cast<double>(atomic_ns) * atomics / atomics_timed
                    : 0.0;
  double total_wall = 0.0;
  for (double w : wall) total_wall += w;

  auto share = [&](std::initializer_list<Layer> layers, double minus = 0.0) {
    std::vector<double> v;
    for (int s = 0; s < solves; ++s) {
      double sum = -minus;
      for (Layer l : layers) sum += self[s][l];
      if (wall[s] > 0.0) v.push_back(std::max(sum, 0.0) / (threads * wall[s]));
    }
    return median(v);
  };
  std::vector<double> serial_frac, wall_ms;
  for (int s = 0; s < solves; ++s) {
    if (wall[s] <= 0.0) continue;
    serial_frac.push_back(serial[s] / wall[s]);
    wall_ms.push_back(wall[s] / 1e6);
  }
  // Per-solve counts: the master (the thread that ran kSolve) for episodes
  // every member takes part in, all threads for everything else.
  std::size_t master = 0;
  for (std::size_t t = 0; t < nrec; ++t) {
    if (count[t][kSolve] > 0) master = t;
  }
  auto total = [&](Layer l) {
    std::uint64_t n = 0;
    for (const auto& c : count) n += c[l];
    return static_cast<double>(n) / solves;
  };

  if (!write_chrome(chrome_path)) {
    std::fprintf(stderr, "abi_trace: cannot write %s\n", chrome_path.c_str());
  }

  char buf[4096];
  int len = std::snprintf(
      buf, sizeof buf,
      "{\"solves\":%d,\"dropped\":%llu,"
      "\"claimed_iters\":%.6g,"
      "\"metrics\":{"
      "\"pool.forks\":%.6g,\"pool.handoff_us\":%.6g,"
      "\"worksharing.claims\":%.6g,\"worksharing.share\":%.6g,"
      "\"barrier.episodes\":%.6g,\"barrier.wait_share\":%.6g,"
      "\"team.singles\":%.6g,\"team.single_share\":%.6g,"
      "\"reduce.calls\":%.6g,\"reduce.wait_share\":%.6g,"
      "\"sync.atomics\":%.6g,\"sync.atomic_share\":%.6g,"
      "\"task.spawned\":%.6g,\"task.spawn_share\":%.6g,"
      "\"task.exec_share\":%.6g,"
      "\"kernel.compute_share\":%.6g,\"kernel.serial_share\":%.6g,"
      "\"kernel.imbalance\":%.6g,\"trace.solve_ms\":%.6g},"
      "\"barrier_calls_per_member\":[",
      g_solves, static_cast<unsigned long long>(dropped),
      static_cast<double>(claimed_iters) / solves,
      median(forks), median(handoff_us), static_cast<double>(claims) / solves,
      share({kWorkshare}),
      static_cast<double>(count[master][kBarrier]) / solves,
      share({kBarrier}), total(kSingleBody),
      share({kSingleClaim, kSingleBody}),
      static_cast<double>(count[master][kReduce]) / solves, share({kReduce}),
      static_cast<double>(atomics) / solves,
      total_wall > 0.0 ? atomic_est / (threads * total_wall) : 0.0,
      total(kTaskSpawn), share({kTaskSpawn}), share({kTaskBody}),
      share({kBody}, atomic_est / solves), median(serial_frac),
      median(imbalance), median(wall_ms));
  std::string out(buf, static_cast<std::size_t>(std::max(len, 0)));
  const char* sep = "";
  for (std::size_t t = 0; t < nrec; ++t) {
    if (count[t][kBody] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s%.6g", sep,
                  static_cast<double>(count[t][kBarrier]) / solves);
    out += buf;
    sep = ",";
  }
  out += "]}";
  return out;
}

}  // namespace zbench::trace

// -- Wrappers ------------------------------------------------------------------

using zbench::trace::Scoped;

extern "C" {

void __wrap_zomp_fork_call(const zomp_ident_t* loc, zomp_microtask_t fn,
                           std::int32_t argc, void** args) {
  using namespace zbench::trace;
  if (!recording()) {
    __real_zomp_fork_call(loc, fn, argc, args);
    return;
  }
  Recorder& r = rec();
  ForkCtx ctx{fn, args, loc,
              g_next_region.fetch_add(1, std::memory_order_relaxed)};
  void* targs[1] = {&ctx};
  r.open(kFork, loc, ctx.region);
  __real_zomp_fork_call(loc, &fork_trampoline, 1, targs);
  r.close();
}

void __wrap_zomp_for_static_init(const zomp_ident_t* loc, std::int32_t gtid,
                                 std::int64_t chunk, std::int64_t lo,
                                 std::int64_t hi, std::int64_t step,
                                 std::int64_t* plo, std::int64_t* phi,
                                 std::int64_t* pstride, std::int32_t* plast) {
  Scoped span(zbench::trace::kWorkshare, loc);
  __real_zomp_for_static_init(loc, gtid, chunk, lo, hi, step, plo, phi,
                              pstride, plast);
  // Counts the member's first block, which is all of it for chunk <= 0.
  if (span.recorder() != nullptr) span.recorder()->claim(*plo, *phi);
}

void __wrap_zomp_for_static_fini(const zomp_ident_t* loc, std::int32_t gtid) {
  Scoped span(zbench::trace::kWorkshare, loc);
  __real_zomp_for_static_fini(loc, gtid);
}

void __wrap_zomp_static_range(const zomp_ident_t* loc, std::int32_t gtid,
                              std::int64_t lo, std::int64_t hi,
                              std::int64_t* plo, std::int64_t* phi,
                              std::int32_t* plast) {
  Scoped span(zbench::trace::kWorkshare, loc);
  __real_zomp_static_range(loc, gtid, lo, hi, plo, phi, plast);
  if (span.recorder() != nullptr) span.recorder()->claim(*plo, *phi);
}

void __wrap_zomp_dispatch_init(const zomp_ident_t* loc, std::int32_t gtid,
                               std::int32_t sched_kind, std::int64_t chunk,
                               std::int64_t lo, std::int64_t hi,
                               std::int64_t step) {
  Scoped span(zbench::trace::kWorkshare, loc);
  __real_zomp_dispatch_init(loc, gtid, sched_kind, chunk, lo, hi, step);
}

std::int32_t __wrap_zomp_dispatch_next(const zomp_ident_t* loc,
                                       std::int32_t gtid, std::int64_t* plo,
                                       std::int64_t* phi, std::int32_t* plast) {
  Scoped span(zbench::trace::kWorkshare, loc);
  const std::int32_t more = __real_zomp_dispatch_next(loc, gtid, plo, phi, plast);
  if (more && span.recorder() != nullptr) span.recorder()->claim(*plo, *phi);
  return more;
}

std::int32_t __wrap_zomp_barrier(const zomp_ident_t* loc, std::int32_t gtid) {
  Scoped span(zbench::trace::kBarrier, loc);
  return __real_zomp_barrier(loc, gtid);
}

std::int32_t __wrap_zomp_single(const zomp_ident_t* loc, std::int32_t gtid) {
  using namespace zbench::trace;
  std::int32_t won = 0;
  {
    Scoped span(kSingleClaim, loc);
    won = __real_zomp_single(loc, gtid);
  }
  // The body span stays open until the winner's zomp_end_single.
  if (won && recording()) rec().open(kSingleBody, loc, rec().region);
  return won;
}

void __wrap_zomp_end_single(const zomp_ident_t* loc, std::int32_t gtid) {
  if (zbench::trace::recording()) zbench::trace::rec().close();
  __real_zomp_end_single(loc, gtid);
}

std::int32_t __wrap_zomp_reduce(const zomp_ident_t* loc, std::int32_t gtid,
                                void* data, std::int64_t size,
                                zomp_reduce_fn_t fn) {
  Scoped span(zbench::trace::kReduce, loc);
  return __real_zomp_reduce(loc, gtid, data, size, fn);
}

void __wrap_zomp_atomic_add_f64(double* addr, double value) {
  using namespace zbench::trace;
  if (!recording()) {
    __real_zomp_atomic_add_f64(addr, value);
    return;
  }
  Recorder& r = rec();
  if ((++r.atomics & kAtomicSampleMask) != 0) {
    __real_zomp_atomic_add_f64(addr, value);
    return;
  }
  const std::uint64_t t = now_ns();
  __real_zomp_atomic_add_f64(addr, value);
  r.atomic_ns += now_ns() - t;
  ++r.atomics_timed;
}

void __wrap_zomp_task_with_deps(const zomp_ident_t* loc, std::int32_t gtid,
                                void (*fn)(void* arg), const void* arg,
                                std::int64_t arg_size,
                                const zomp_depend_t* deps, std::int32_t ndeps,
                                std::int32_t flags, std::int32_t priority) {
  using namespace zbench::trace;
  if (!recording()) {
    __real_zomp_task_with_deps(loc, gtid, fn, arg, arg_size, deps, ndeps,
                               flags, priority);
    return;
  }
  Scoped span(kTaskSpawn, loc);
  // The runtime copies the block before returning, so a stack buffer serves
  // every argument block that fits in it.
  const std::size_t size =
      sizeof(TaskHeader) + static_cast<std::size_t>(arg_size);
  alignas(16) unsigned char small[256];
  std::unique_ptr<unsigned char[]> big;
  unsigned char* block = small;
  if (size > sizeof small) {
    big = std::make_unique<unsigned char[]>(size);
    block = big.get();
  }
  const TaskHeader h{fn, loc};
  std::memcpy(block, &h, sizeof h);
  if (arg_size > 0) std::memcpy(block + sizeof h, arg, size - sizeof h);
  __real_zomp_task_with_deps(loc, gtid, &task_trampoline, block,
                             static_cast<std::int64_t>(size), deps, ndeps,
                             flags, priority);
}

}  // extern "C"
