#include "runtime/topology.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace zomp::rt {

namespace {

i32 hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<i32>(hc);
}

/// Reads one small sysfs integer file; nullopt on any failure (missing /sys,
/// hotplugged-away cpu, non-Linux). Failures flip discovery to the flat model.
std::optional<i32> read_sysfs_i32(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return std::nullopt;
  long v = 0;
  const int got = std::fscanf(f, "%ld", &v);
  std::fclose(f);
  if (got != 1) return std::nullopt;
  return static_cast<i32>(v);
}

}  // namespace

std::vector<i32> process_affinity_mask() {
  std::vector<i32> out;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int p = 0; p < CPU_SETSIZE; ++p) {
      if (CPU_ISSET(p, &set)) out.push_back(p);
    }
  }
#endif
  return out;
}

Topology Topology::from_raw(std::vector<ProcInfo> raw, bool flat) {
  // Dense renumbering: sort by (socket, core, os_proc), then assign socket /
  // core ids in first-seen order and smt ranks within each core. The sort
  // keys on the *source* ids so SMT siblings land adjacent regardless of OS
  // numbering (Linux commonly interleaves: cpu0/cpu4 = core 0's threads).
  std::sort(raw.begin(), raw.end(), [](const ProcInfo& a, const ProcInfo& b) {
    if (a.socket != b.socket) return a.socket < b.socket;
    if (a.core != b.core) return a.core < b.core;
    return a.os_proc < b.os_proc;
  });
  Topology topo;
  topo.flat_ = flat;
  std::map<i32, i32> socket_ids;
  std::map<std::pair<i32, i32>, i32> core_ids;
  for (ProcInfo p : raw) {
    const auto socket_it =
        socket_ids.emplace(p.socket, static_cast<i32>(socket_ids.size()));
    const auto core_it = core_ids.emplace(
        std::make_pair(p.socket, p.core), static_cast<i32>(core_ids.size()));
    p.socket = socket_it.first->second;
    p.smt = core_it.second
                ? 0
                : (topo.procs_.empty() ? 0 : topo.procs_.back().smt + 1);
    p.core = core_it.first->second;
    topo.procs_.push_back(p);
  }
  topo.num_sockets_ = static_cast<i32>(socket_ids.size());
  topo.num_cores_ = static_cast<i32>(core_ids.size());
  return topo;
}

Topology Topology::discover() {
  std::vector<i32> mask = process_affinity_mask();
  if (mask.empty()) {
    // No affinity call on this platform: flat model over the hardware count.
    return flat(hardware_threads());
  }
  std::vector<ProcInfo> raw;
  raw.reserve(mask.size());
  bool sysfs_ok = true;
  for (const i32 p : mask) {
    char core_path[128];
    char sock_path[128];
    std::snprintf(core_path, sizeof(core_path),
                  "/sys/devices/system/cpu/cpu%d/topology/core_id", p);
    std::snprintf(sock_path, sizeof(sock_path),
                  "/sys/devices/system/cpu/cpu%d/topology/physical_package_id",
                  p);
    const auto core = read_sysfs_i32(core_path);
    const auto sock = read_sysfs_i32(sock_path);
    if (!core || !sock) {
      sysfs_ok = false;
      break;
    }
    ProcInfo info;
    info.os_proc = p;
    info.core = *core;
    info.socket = *sock;
    raw.push_back(info);
  }
  if (!sysfs_ok) return flat_over(std::move(mask));
  return from_raw(std::move(raw), /*flat=*/false);
}

Topology Topology::flat(i32 nprocs) {
  std::vector<i32> procs;
  for (i32 p = 0; p < std::max<i32>(1, nprocs); ++p) procs.push_back(p);
  return flat_over(std::move(procs));
}

Topology Topology::flat_over(std::vector<i32> os_procs) {
  std::vector<ProcInfo> raw;
  raw.reserve(os_procs.size());
  for (std::size_t i = 0; i < os_procs.size(); ++i) {
    ProcInfo info;
    info.os_proc = os_procs[i];
    info.core = static_cast<i32>(i);  // each proc its own core
    info.socket = 0;
    raw.push_back(info);
  }
  return from_raw(std::move(raw), /*flat=*/true);
}

Topology Topology::synthetic(i32 sockets, i32 cores_per_socket,
                             i32 smt_per_core) {
  std::vector<ProcInfo> raw;
  i32 os_proc = 0;
  for (i32 s = 0; s < sockets; ++s) {
    for (i32 c = 0; c < cores_per_socket; ++c) {
      for (i32 t = 0; t < smt_per_core; ++t) {
        ProcInfo info;
        info.os_proc = os_proc++;
        info.core = c;
        info.socket = s;
        raw.push_back(info);
      }
    }
  }
  return from_raw(std::move(raw), /*flat=*/false);
}

bool Topology::usable(i32 os_proc) const {
  return find_proc(os_proc) != nullptr;
}

const ProcInfo* Topology::find_proc(i32 os_proc) const {
  // Linear scan: topologies are at most a few hundred entries and the
  // caller (place parsing) is a cold path.
  for (const ProcInfo& p : procs_) {
    if (p.os_proc == os_proc) return &p;
  }
  return nullptr;
}

const Topology& Topology::instance() {
  static const Topology topo = discover();
  return topo;
}

}  // namespace zomp::rt
