#include "runtime/api.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "runtime/icv.h"
#include "runtime/team.h"
#include "runtime/topology.h"

namespace zomp {

using rt::current_thread;
using rt::GlobalIcv;
using rt::i32;

i32 thread_num() { return current_thread().tid; }

i32 num_threads() { return current_thread().team->size(); }

i32 max_threads() {
  const rt::ThreadState& ts = current_thread();
  if (ts.pushed_num_threads > 0) return ts.pushed_num_threads;
  return ts.icv.nthreads > 0 ? ts.icv.nthreads
                             : GlobalIcv::instance().default_team_size();
}

bool in_parallel() { return current_thread().team->active_level() > 0; }

i32 level() { return current_thread().team->level(); }

i32 active_level() { return current_thread().team->active_level(); }

i32 team_size(i32 at_level) {
  rt::Team* team = current_thread().team;
  const i32 cur = team->level();
  if (at_level < 0 || at_level > cur) return -1;
  for (i32 l = cur; l > at_level && team != nullptr; --l) {
    team = team->parent();
  }
  // A null hop means we walked past the oldest recorded fork — everything
  // above it is the initial implicit team of size 1.
  return team != nullptr ? team->size() : 1;
}

i32 max_task_priority() { return GlobalIcv::instance().max_task_priority(); }

i32 num_procs() {
  // The processors this process can actually be scheduled on (topology.h):
  // sched_getaffinity-restricted, so `taskset -c 0 ./a.out` reports 1
  // however wide the machine is. Falls back to hardware_concurrency when no
  // affinity call exists.
  return rt::Topology::instance().num_procs();
}

void set_num_threads(i32 n) {
  if (n > 0) current_thread().icv.nthreads = n;
}

void set_dynamic(bool dyn) { current_thread().icv.dynamic = dyn; }

bool get_dynamic() { return current_thread().icv.dynamic; }

void set_max_active_levels(i32 levels) {
  if (levels >= 1) current_thread().icv.max_active_levels = levels;
}

i32 get_max_active_levels() { return current_thread().icv.max_active_levels; }

void set_schedule(rt::Schedule schedule) {
  current_thread().icv.run_sched = schedule;
}

rt::Schedule get_schedule() { return current_thread().icv.run_sched; }

void set_wait_policy(rt::WaitPolicy policy) {
  GlobalIcv::instance().set_wait_policy(policy);
}

rt::WaitPolicy get_wait_policy() { return GlobalIcv::instance().wait_policy(); }

bool get_cancellation() { return GlobalIcv::instance().cancellation(); }

rt::BindKind get_proc_bind() {
  return GlobalIcv::instance().bind_at(current_thread().icv.bind_index);
}

i32 num_places() { return rt::PlaceTable::instance().num_places(); }

i32 place_num() { return current_thread().place_num; }

i32 place_num_procs(i32 place) {
  const rt::PlaceTable& table = rt::PlaceTable::instance();
  if (place < 0 || place >= table.num_places()) return 0;
  return static_cast<i32>(table.place(place).procs.size());
}

void place_proc_ids(i32 place, i32* ids) {
  const rt::PlaceTable& table = rt::PlaceTable::instance();
  if (ids == nullptr || place < 0 || place >= table.num_places()) return;
  const auto& procs = table.place(place).procs;
  for (std::size_t i = 0; i < procs.size(); ++i) ids[i] = procs[i];
}

namespace {

/// Resolves the calling environment's place-partition-var against the table
/// (part_len == 0 means "whole table", see icv.h).
std::pair<i32, i32> resolved_partition() {
  const rt::Icv& icv = current_thread().icv;
  const i32 total = rt::PlaceTable::instance().num_places();
  if (total == 0) return {0, 0};
  i32 lo = icv.part_lo;
  i32 len = icv.part_len;
  if (lo < 0 || lo >= total) lo = 0;
  if (len <= 0 || lo + len > total) len = total - lo;
  return {lo, len};
}

}  // namespace

i32 partition_num_places() { return resolved_partition().second; }

void partition_place_nums(i32* nums) {
  if (nums == nullptr) return;
  const auto [lo, len] = resolved_partition();
  for (i32 i = 0; i < len; ++i) nums[i] = lo + i;
}

void display_affinity() {
  std::fprintf(stderr, "%s\n",
               rt::affinity_report(current_thread()).c_str());
}

void display_affinity(const char* format) {
  if (format == nullptr) {
    display_affinity();
    return;
  }
  std::fprintf(
      stderr, "%s\n",
      rt::affinity_report(current_thread(), std::string(format)).c_str());
}

namespace {

/// The omp_get_affinity_format/omp_capture_affinity truncation contract:
/// copy at most size-1 chars + NUL, return the untruncated length.
std::size_t copy_out(const std::string& text, char* buffer,
                     std::size_t size) {
  if (buffer != nullptr && size > 0) {
    const std::size_t n = std::min(text.size(), size - 1);
    std::memcpy(buffer, text.data(), n);
    buffer[n] = '\0';
  }
  return text.size();
}

}  // namespace

void set_affinity_format(const char* format) {
  rt::GlobalIcv::instance().set_affinity_format(
      format == nullptr ? std::string() : std::string(format));
}

std::size_t get_affinity_format(char* buffer, std::size_t size) {
  return copy_out(rt::GlobalIcv::instance().affinity_format(), buffer, size);
}

std::size_t capture_affinity(char* buffer, std::size_t size,
                             const char* format) {
  const std::string text =
      format == nullptr
          ? rt::affinity_report(current_thread())
          : rt::affinity_report(current_thread(), std::string(format));
  return copy_out(text, buffer, size);
}

double wtime() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

double wtick() {
  using period = std::chrono::steady_clock::period;
  return static_cast<double>(period::num) / static_cast<double>(period::den);
}

}  // namespace zomp
