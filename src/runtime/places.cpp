#include "runtime/places.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "runtime/env.h"
#include "runtime/fault.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace zomp::rt {

const char* bind_kind_name(BindKind kind) {
  switch (kind) {
    case BindKind::kUnset: return "unset";
    case BindKind::kFalse: return "false";
    case BindKind::kTrue: return "true";
    case BindKind::kPrimary: return "primary";
    case BindKind::kClose: return "close";
    case BindKind::kSpread: return "spread";
  }
  return "<invalid>";
}

namespace {

std::string lower_trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t");
  std::string t = s.substr(first, last - first + 1);
  std::transform(t.begin(), t.end(), t.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return t;
}

}  // namespace

std::optional<BindKind> parse_bind_kind(const std::string& text) {
  const std::string t = lower_trim(text);
  if (t == "false") return BindKind::kFalse;
  if (t == "true") return BindKind::kTrue;
  if (t == "primary" || t == "master") return BindKind::kPrimary;
  if (t == "close") return BindKind::kClose;
  if (t == "spread") return BindKind::kSpread;
  return std::nullopt;
}

std::optional<std::vector<BindKind>> parse_proc_bind(const std::string& text) {
  std::vector<BindKind> out;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const std::string item = comma == std::string::npos
                                 ? text.substr(start)
                                 : text.substr(start, comma - start);
    const auto kind = parse_bind_kind(item);
    if (!kind) return std::nullopt;
    out.push_back(*kind);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// OMP_PLACES grammar
// ---------------------------------------------------------------------------

namespace {

/// Character cursor over a places spec. Errors latch; the first one wins.
class PlacesScanner {
 public:
  explicit PlacesScanner(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  std::optional<i64> number() {
    skip_ws();
    bool neg = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      neg = text_[pos_] == '-';
      ++pos_;
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return std::nullopt;
    }
    i64 v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      // Saturate instead of overflowing: anything this large is rejected by
      // the range checks in the callers anyway.
      if (v < kSaturatedNumber) v = v * 10 + (text_[pos_] - '0');
      ++pos_;
    }
    return neg ? -v : v;
  }

  static constexpr i64 kSaturatedNumber = i64{1} << 40;
  std::string word() {
    skip_ws();
    std::string w;
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      w.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text_[pos_]))));
      ++pos_;
    }
    return w;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

PlacesParse fail(std::string error) {
  PlacesParse out;
  out.error = std::move(error);
  return out;
}

/// Widest explicit place a spec may name: the kernel's cpu_set_t covers
/// CPU_SETSIZE processors, so longer ranges could never bind.
constexpr i64 kMaxPlaceLength = 65536;

/// One `num[:len[:stride]]` resource range inside an explicit place.
bool parse_res_range(PlacesScanner& s, std::vector<i32>& procs,
                     std::string& error) {
  const auto base = s.number();
  if (!base) {
    error = "expected a processor number inside '{...}'";
    return false;
  }
  if (*base < 0) {
    error = "processor numbers cannot be negative";
    return false;
  }
  if (*base > kMaxPlaceLength) {
    error = "processor number exceeds the supported range";
    return false;
  }
  i64 len = 1;
  i64 stride = 1;
  if (s.consume(':')) {
    const auto l = s.number();
    if (!l) {
      error = "expected a length after ':'";
      return false;
    }
    len = *l;
    if (len <= 0) {
      error = "place length must be positive";
      return false;
    }
    // The expansion below materialises `len` processor ids; anything past
    // the kernel's cpu_set_t width cannot be bound anyway, so reject
    // absurd lengths before they allocate (OMP_PLACES="{0:2000000000}").
    if (len > kMaxPlaceLength) {
      error = "place length exceeds the supported processor range";
      return false;
    }
    if (s.consume(':')) {
      const auto st = s.number();
      if (!st) {
        error = "expected a stride after ':'";
        return false;
      }
      stride = *st;
      if (stride < 0) {
        error = "negative strides are not supported in OMP_PLACES";
        return false;
      }
      if (stride == 0) {
        error = "place stride cannot be zero";
        return false;
      }
      if (stride > kMaxPlaceLength) {
        error = "place stride exceeds the supported range";
        return false;
      }
    }
  }
  for (i64 k = 0; k < len; ++k) {
    const i64 proc = *base + k * stride;
    // Out-of-range ids can never be usable; skipping them here (rather than
    // truncating through the i32 cast) keeps a wrapped value from aliasing
    // a real low-numbered processor.
    if (proc > kMaxPlaceLength) break;
    procs.push_back(static_cast<i32>(proc));
  }
  return true;
}

PlacesParse parse_explicit_places(PlacesScanner& s) {
  PlacesParse out;
  for (;;) {
    if (!s.consume('{')) {
      return fail("expected '{' to open a place");
    }
    Place place;
    std::string error;
    for (;;) {
      if (!parse_res_range(s, place.procs, error)) return fail(error);
      if (s.consume(',')) continue;
      break;
    }
    if (!s.consume('}')) {
      return fail("unbalanced '{' in place list");
    }
    std::sort(place.procs.begin(), place.procs.end());
    place.procs.erase(std::unique(place.procs.begin(), place.procs.end()),
                      place.procs.end());
    out.places.push_back(std::move(place));
    if (s.consume(',')) continue;
    break;
  }
  if (!s.at_end()) return fail("trailing characters after place list");
  out.ok = true;
  return out;
}

/// Builds the abstract place kinds from the topology: one place per SMT
/// thread / core / socket, in topology order.
std::vector<Place> abstract_places(const std::string& kind,
                                   const Topology& topo) {
  std::vector<Place> out;
  const auto& procs = topo.procs();
  if (kind == "threads") {
    for (const ProcInfo& p : procs) {
      Place place;
      place.procs.push_back(p.os_proc);
      out.push_back(std::move(place));
    }
    return out;
  }
  // cores / sockets: group consecutive procs (topology order keeps siblings
  // adjacent) by the grouping id.
  i32 current = -1;
  for (const ProcInfo& p : procs) {
    const i32 group = kind == "cores" ? p.core : p.socket;
    if (out.empty() || group != current) {
      out.emplace_back();
      current = group;
    }
    out.back().procs.push_back(p.os_proc);
  }
  return out;
}

}  // namespace

PlacesParse parse_places(const std::string& text, const Topology& topo) {
  PlacesScanner s(text);
  if (s.peek() == '{') {
    PlacesParse parsed = parse_explicit_places(s);
    if (!parsed.ok) return parsed;
    // Intersect with the usable processor set: trim unknown procs, drop
    // places the trim left empty. A `taskset`-restricted process keeps
    // whatever survives — possibly a single place (the graceful fallback).
    std::vector<Place> usable;
    for (Place& place : parsed.places) {
      Place trimmed;
      for (const i32 p : place.procs) {
        if (topo.usable(p)) trimmed.procs.push_back(p);
      }
      if (!trimmed.procs.empty()) usable.push_back(std::move(trimmed));
    }
    parsed.places = std::move(usable);
    return parsed;
  }
  const std::string kind = s.word();
  if (kind != "threads" && kind != "cores" && kind != "sockets") {
    return fail("expected 'threads', 'cores', 'sockets' or '{...}'");
  }
  i64 count = -1;
  if (s.consume('(')) {
    const auto n = s.number();
    if (!n || *n <= 0) {
      return fail("expected a positive count in '" + kind + "(...)'");
    }
    if (!s.consume(')')) {
      return fail("expected ')' after '" + kind + "(' count");
    }
    count = *n;
  }
  if (!s.at_end()) return fail("trailing characters after '" + kind + "'");
  PlacesParse out;
  out.ok = true;
  out.places = abstract_places(kind, topo);
  if (count >= 0 && static_cast<std::size_t>(count) < out.places.size()) {
    out.places.resize(static_cast<std::size_t>(count));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process-wide place table
// ---------------------------------------------------------------------------

PlaceTable::PlaceTable() {
  const Topology& topo = Topology::instance();
  std::string spec = "cores";  // the default abstract name
  if (const auto text = env_string("PLACES")) spec = *text;
  PlacesParse parsed = parse_places(spec, topo);
  if (!parsed.ok) {
    // Unified malformed-env channel (env.h): warn once, fall back to the
    // 'cores' default.
    const std::string detail = parsed.error + "; using 'cores'";
    warn_malformed_env("PLACES", spec.c_str(), detail.c_str());
    parsed = parse_places("cores", topo);
  }
  places_ = std::move(parsed.places);
}

PlaceTable& PlaceTable::instance() {
  static PlaceTable table;
  return table;
}

void PlaceTable::set_for_test(std::vector<Place> places) {
  places_ = std::move(places);
  ++generation_;
}

// ---------------------------------------------------------------------------
// Placement math
// ---------------------------------------------------------------------------

namespace {

/// Clamps fork inputs the way the placement math reads them: the partition
/// into a table of `total` places (part_len == 0 means "whole table", the
/// initial data environment before any fork narrowed it), and the master
/// to its index within the partition — 0 when outside it, which includes
/// the unbound place_num -1 a master has before its first bound region.
void clamp_plan_inputs(i32 total, i32& part_lo, i32& part_len,
                       i32 master_place, i32& m) {
  if (part_lo < 0 || part_lo >= total) part_lo = 0;
  if (part_len <= 0 || part_lo + part_len > total) part_len = total - part_lo;
  m = master_place - part_lo;
  if (m < 0 || m >= part_len) m = 0;
}

}  // namespace

u64 binding_sig(BindKind bind, i32 part_lo, i32 part_len, i32 master_place,
                i32 size) {
  if (bind == BindKind::kUnset || bind == BindKind::kFalse) return 0;
  if (!PlaceTable::instance().available()) return 0;
  // Keyed on the clamped inputs plan_binding actually uses, so equal plans
  // get equal keys whatever the master's place_num was before clamping.
  i32 m = 0;
  clamp_plan_inputs(PlaceTable::instance().num_places(), part_lo, part_len,
                    master_place, m);
  // FNV-style mix over the plan inputs plus the table generation; the high
  // bit keeps active signatures distinct from the inactive sentinel 0.
  u64 h = 1469598103934665603ull;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<u64>(static_cast<i64>(bind)));
  mix(static_cast<u64>(part_lo));
  mix(static_cast<u64>(part_len));
  mix(static_cast<u64>(m));
  mix(static_cast<u64>(size));
  mix(PlaceTable::instance().generation());
  return h | (u64{1} << 63);
}

BindingPlan plan_binding(BindKind bind, i32 part_lo, i32 part_len,
                         i32 master_place, i32 size) {
  BindingPlan plan;
  if (bind == BindKind::kUnset || bind == BindKind::kFalse || size <= 0) {
    return plan;
  }
  const PlaceTable& table = PlaceTable::instance();
  const i32 total = table.num_places();
  if (total == 0) return plan;

  i32 m = 0;  // master's index within the partition
  clamp_plan_inputs(total, part_lo, part_len, master_place, m);
  const i32 K = part_len;
  const i32 T = size;

  plan.active = true;
  plan.sig = binding_sig(bind, part_lo, part_len, master_place, size);
  plan.members.resize(static_cast<std::size_t>(T));

  for (i32 i = 0; i < T; ++i) {
    MemberBinding& mb = plan.members[static_cast<std::size_t>(i)];
    switch (bind) {
      case BindKind::kPrimary:
        mb.place = part_lo + m;
        mb.part_lo = part_lo;
        mb.part_len = K;
        break;
      case BindKind::kTrue:
      case BindKind::kClose: {
        // Consecutive places from the master while the team fits; grouped
        // (floor(i*K/T) threads per place) beyond.
        const i32 offset = T <= K ? i : static_cast<i32>((i64{i} * K) / T);
        mb.place = part_lo + (m + offset) % K;
        mb.part_lo = part_lo;
        mb.part_len = K;
        break;
      }
      case BindKind::kSpread: {
        if (T <= K) {
          // Subdivide [0, K) into T contiguous subpartitions with fixed
          // boundaries [floor(j*K/T), floor((j+1)*K/T)). Spec §10.1.3:
          // subpartition numbering begins with the one containing the
          // parent thread's place — so member i takes subpartition
          // (r + i) % T, where r is the slice holding the master, and the
          // master itself (member 0) keeps the parent's exact place.
          const i32 r = static_cast<i32>(
              (i64{m + 1} * T + K - 1) / K - 1);  // slice containing m
          const i32 j = (r + i) % T;
          const i32 sub_lo = static_cast<i32>((i64{j} * K) / T);
          const i32 sub_hi = static_cast<i32>((i64{j + 1} * K) / T);
          mb.place = i == 0 ? part_lo + m : part_lo + sub_lo;
          mb.part_lo = part_lo + sub_lo;
          mb.part_len = std::max(1, sub_hi - sub_lo);
        } else {
          // More members than places: groups share a place, rotated so
          // group 0 sits on the master's place, and each member's
          // partition narrows to that single place.
          const i32 sub = static_cast<i32>((i64{i} * K) / T);
          mb.place = part_lo + (m + sub) % K;
          mb.part_lo = mb.place;
          mb.part_len = 1;
        }
        break;
      }
      case BindKind::kUnset:
      case BindKind::kFalse:
        break;  // unreachable (filtered above)
    }
  }
  return plan;
}

namespace {
std::atomic<i64> g_affinity_syscalls{0};
}  // namespace

i64 affinity_syscall_count() {
  return g_affinity_syscalls.load(std::memory_order_relaxed);
}

bool apply_place_mask(i32 place) {
  // Fault-injection hook (fault.h): a refused mask is the pre-existing
  // degradation path — the logical place assignment stays in force (place
  // numbering, nested partitioning), only the OS pinning is skipped — so an
  // injected failure exercises exactly the non-Linux / cgroup-restricted
  // branch on any host.
  if (fault_should_fail(FaultSite::kAffinity)) return false;
#if defined(__linux__)
  const PlaceTable& table = PlaceTable::instance();
  if (place < 0 || place >= table.num_places()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (const i32 p : table.place(place).procs) {
    if (p >= 0 && p < CPU_SETSIZE) {
      CPU_SET(p, &set);
      any = true;
    }
  }
  if (!any) return false;
  g_affinity_syscalls.fetch_add(1, std::memory_order_relaxed);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)place;
  g_affinity_syscalls.fetch_add(1, std::memory_order_relaxed);
  return false;
#endif
}

}  // namespace zomp::rt
