// Per-thread trace rings (DESIGN.md S12).
//
// Everything mutable here lives in a heap-leaked magic static (the fault.cpp
// pattern): the rings must outlive static destructors so the atexit flush
// can run after the pool's own teardown has joined the workers.

#include "runtime/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/env.h"
#include "runtime/team.h"

namespace zomp::rt {
namespace trace_detail {

std::atomic<bool> g_ring_on{false};

}  // namespace trace_detail

namespace {

using trace_detail::g_ring_on;

/// 64Ki records/thread (~2.5 MiB at 8 threads) rides out a class-S NPB run
/// without drops; overflow is counted, not wrapped, so the serialized trace
/// is always a deterministic prefix.
constexpr i64 kDefaultRingCapacity = 64 * 1024;

/// Raw timestamp: TSC where we have it (one instruction, core-synchronized
/// on every x86 this runtime targets), steady_clock nanoseconds elsewhere.
/// Calibration against steady_clock at serialize time converts either to
/// microseconds for the Chrome "ts" field.
u64 trace_clock_raw() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

struct TraceRecord {
  u64 stamp;  ///< trace_clock_raw() at emit
  i64 arg0;
  i64 arg1;
  i32 ev;     ///< TraceEv value
  i32 tid;    ///< id within the emitting thread's innermost team
  i32 place;  ///< place_num at emit (-1 = unbound)
};

/// One ring per emitting thread, owned for that thread's whole lifetime.
/// `count` is the publication frontier: the owner stores the record with
/// plain writes, then release-stores count+1; drains acquire `count` and
/// read only that prefix. A full ring bumps `dropped` instead of wrapping.
struct TraceRing {
  TraceRing(i32 gtid_in, i64 capacity_in)
      : gtid(gtid_in),
        capacity(capacity_in),
        records(new TraceRecord[static_cast<size_t>(capacity_in)]) {}

  void append(const TraceRecord& rec) noexcept {
    const u64 n = count.load(std::memory_order_relaxed);
    if (static_cast<i64>(n) >= capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    records[n] = rec;
    count.store(n + 1, std::memory_order_release);
  }

  const i32 gtid;
  const i64 capacity;
  std::unique_ptr<TraceRecord[]> records;
  alignas(kCacheLine) std::atomic<u64> count{0};
  std::atomic<u64> dropped{0};
};

struct TraceState {
  /// Guards ring registration, path/capacity config and g_ring_on. Never
  /// taken on the emit path once a thread owns its ring.
  std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;
  i64 ring_capacity = kDefaultRingCapacity;
  std::string path;
  bool atexit_registered = false;

  /// Calibration anchor, taken once at first use: raw clock and
  /// steady_clock sampled back to back. A second pair at serialize time
  /// yields ticks-per-nanosecond.
  u64 base_raw = 0;
  i64 base_ns = 0;

  TraceState() {
    base_raw = trace_clock_raw();
    base_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
  }
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: see file comment
  return *s;
}

/// Owner-thread shortcut to its ring. The pointee is owned by the leaked
/// registry, never freed, so a pool thread outliving a test reset keeps a
/// valid pointer.
thread_local TraceRing* tls_ring = nullptr;

TraceRing* register_ring(i32 gtid) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.rings.push_back(std::make_unique<TraceRing>(gtid, s.ring_capacity));
  tls_ring = s.rings.back().get();
  return tls_ring;
}

void atexit_flush() { (void)zomp::trace_flush(); }

/// Chrome trace-event rendering per TraceEv: duration pairs ('B'/'E') for
/// the region-shaped events, thread-scoped instants ('i') for the rest.
struct EvDesc {
  const char* name;
  char ph;
};

const EvDesc& ev_desc(i32 ev) {
  static const EvDesc kTable[static_cast<i32>(TraceEv::kCount)] = {
      {"parallel", 'B'},       {"parallel", 'E'},
      {"implicit task", 'B'},  {"implicit task", 'E'},
      {"dispatch init", 'i'},  {"chunk claim", 'i'},
      {"barrier", 'B'},        {"barrier", 'E'},
      {"task create", 'i'},    {"task", 'B'},
      {"task", 'E'},           {"steal attempt", 'i'},
      {"steal success", 'i'},  {"cancel", 'i'},
      {"fault", 'i'},
  };
  static const EvDesc kUnknown = {"unknown", 'i'};
  if (ev < 0 || ev >= static_cast<i32>(TraceEv::kCount)) return kUnknown;
  return kTable[ev];
}

}  // namespace

namespace trace_detail {

void emit_slow(TraceEv ev, i64 arg0, i64 arg1) noexcept {
  const ThreadState& ts = current_thread();
  TraceRing* ring = tls_ring;
  if (ring == nullptr) ring = register_ring(ts.gtid);
  TraceRecord rec;
  rec.stamp = trace_clock_raw();
  rec.arg0 = arg0;
  rec.arg1 = arg1;
  rec.ev = static_cast<i32>(ev);
  rec.tid = ts.tid;
  rec.place = ts.place_num;
  ring->append(rec);
}

}  // namespace trace_detail

void trace_init_from_env() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::optional<std::string> raw = env_string("TRACE");
  if (!raw.has_value()) return;
  if (raw->empty()) {
    warn_malformed_env("TRACE", "", "expected an output file path");
    return;
  }
  s.path = *raw;
  if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(atexit_flush);
  }
  g_ring_on.store(true, std::memory_order_relaxed);
}

std::string trace_serialize_json() {
  TraceState& s = state();

  // Re-calibrate: the tick rate is (raw delta) / (steady delta) since the
  // construction anchor. Guard the degenerate window (serialize right after
  // init) with a 1 tick/ns fallback, which is exact for the steady_clock
  // backend anyway.
  const u64 now_raw = trace_clock_raw();
  const i64 now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  double ticks_per_ns = 1.0;
  if (now_raw > s.base_raw && now_ns > s.base_ns) {
    ticks_per_ns = static_cast<double>(now_raw - s.base_raw) /
                   static_cast<double>(now_ns - s.base_ns);
  }

  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  auto push = [&](const char* text) {
    if (!first) out += ',';
    first = false;
    out += text;
  };

  std::lock_guard<std::mutex> lock(s.mu);

  // Lane metadata. pid = place + 1 (so unbound -1 maps to lane 0),
  // tid = gtid. A thread that migrates places mid-trace contributes to
  // several pid lanes; pairing is still per-gtid.
  std::map<i32, bool> pids_named;
  for (const auto& ring : s.rings) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    i32 last_place = -2;
    for (u64 i = 0; i < n; ++i) {
      const i32 place = ring->records[i].place;
      if (place == last_place) continue;
      last_place = place;
      const i32 pid = place + 1;
      if (!pids_named[pid]) {
        pids_named[pid] = true;
        char pname[32];
        if (place < 0) {
          std::snprintf(pname, sizeof(pname), "place (unbound)");
        } else {
          std::snprintf(pname, sizeof(pname), "place %d", place);
        }
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                      "\"args\":{\"name\":\"%s\"}}",
                      pid, pname);
        push(buf);
      }
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
          "\"args\":{\"name\":\"gtid %d (dropped %" PRIu64 ")\"}}",
          pid, ring->gtid, ring->gtid,
          ring->dropped.load(std::memory_order_relaxed));
      push(buf);
    }
  }

  for (const auto& ring : s.rings) {
    const u64 n = ring->count.load(std::memory_order_acquire);
    for (u64 i = 0; i < n; ++i) {
      const TraceRecord& rec = ring->records[i];
      const EvDesc& desc = ev_desc(rec.ev);
      const double ts_us = rec.stamp >= s.base_raw
                               ? static_cast<double>(rec.stamp - s.base_raw) /
                                     ticks_per_ns / 1000.0
                               : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
                    "\"pid\":%d,\"tid\":%d,\"args\":{\"a0\":%" PRId64
                    ",\"a1\":%" PRId64 ",\"tid\":%d}}",
                    desc.name, desc.ph, ts_us, rec.place + 1, ring->gtid,
                    rec.arg0, rec.arg1, rec.tid);
      push(buf);
    }
  }

  out += "]}";
  return out;
}

bool trace_write_json(const std::string& path) {
  const std::string json = trace_serialize_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "zomp: cannot open trace output '%s'\n",
                 path.c_str());
    return false;
  }
  const size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = wrote == json.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "zomp: short write to '%s'\n", path.c_str());
  return ok;
}

std::string trace_output_path() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

u64 trace_dropped_total() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  u64 total = 0;
  for (const auto& ring : s.rings) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void trace_enable_ring_for_test() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  g_ring_on.store(true, std::memory_order_relaxed);
}

void trace_set_ring_capacity_for_test(i64 records) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.ring_capacity = records > 0 ? records : kDefaultRingCapacity;
}

void trace_reset_for_test() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Rings are emptied, not destroyed: pool threads keep their tls pointers.
  for (const auto& ring : s.rings) {
    ring->count.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  s.ring_capacity = kDefaultRingCapacity;
  s.path.clear();
  g_ring_on.store(false, std::memory_order_relaxed);
}

}  // namespace zomp::rt

namespace zomp {

bool trace_flush() {
  const std::string path = rt::trace_output_path();
  if (path.empty()) return false;
  return rt::trace_write_json(path);
}

}  // namespace zomp
