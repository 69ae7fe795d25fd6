// Hardware topology discovery for the affinity subsystem (DESIGN.md S1.8).
//
// The topology is the ground truth the place machinery (places.h) builds on:
// which OS processors this process may run on, and how they group into SMT
// siblings, cores, and sockets. Discovery intersects the Linux sysfs
// enumeration with the process scheduling mask (`sched_getaffinity`), so a
// `taskset`-restricted process sees only its slice of the machine — the
// oversubscription census (common.h) and `omp_get_num_procs` both key off
// that usable count, not `hardware_concurrency`. When sysfs is absent
// (non-Linux, containers without /sys) the topology degrades to a flat model:
// every usable processor is its own single-thread core on one socket.
#pragma once

#include <vector>

#include "runtime/common.h"

namespace zomp::rt {

/// One usable OS processor, located in the core/socket hierarchy. Ids are
/// dense per-topology renumberings (socket 0..S-1, core 0..C-1 across the
/// whole machine, smt 0..k-1 within the core); `os_proc` is what the kernel
/// scheduling calls take.
struct ProcInfo {
  i32 os_proc = 0;
  i32 core = 0;
  i32 socket = 0;
  i32 smt = 0;
};

/// Immutable processor topology. `instance()` discovers once per process;
/// the static builders exist so tests can exercise placement math on
/// synthetic machines without root or a particular host shape.
class Topology {
 public:
  /// Process-wide topology, discovered on first use.
  static const Topology& instance();

  /// sysfs + affinity-mask discovery (what instance() runs).
  static Topology discover();

  /// Flat fallback: `nprocs` single-thread cores on one socket.
  static Topology flat(i32 nprocs);

  /// Flat topology over an explicit OS-processor set (restricted masks).
  static Topology flat_over(std::vector<i32> os_procs);

  /// Synthetic SMT machine for tests: `sockets` x `cores_per_socket` x
  /// `smt_per_core`, OS procs numbered core-major.
  static Topology synthetic(i32 sockets, i32 cores_per_socket,
                            i32 smt_per_core);

  /// Usable processors, sorted by (socket, core, smt).
  const std::vector<ProcInfo>& procs() const { return procs_; }
  i32 num_procs() const { return static_cast<i32>(procs_.size()); }
  i32 num_cores() const { return num_cores_; }
  i32 num_sockets() const { return num_sockets_; }

  /// True when sysfs was unusable and the flat model is in effect.
  bool flat_fallback() const { return flat_; }

  /// True if `os_proc` is in the usable set.
  bool usable(i32 os_proc) const;

  /// Locates `os_proc` in the hierarchy; nullptr when it is not usable.
  const ProcInfo* find_proc(i32 os_proc) const;

 private:
  Topology() = default;
  static Topology from_raw(std::vector<ProcInfo> raw, bool flat);

  std::vector<ProcInfo> procs_;
  i32 num_cores_ = 0;
  i32 num_sockets_ = 0;
  bool flat_ = true;
};

/// OS processor ids this process may be scheduled on (`sched_getaffinity`),
/// sorted ascending. Empty when the platform offers no affinity call — the
/// caller falls back to `hardware_concurrency` numbering.
std::vector<i32> process_affinity_mask();

}  // namespace zomp::rt
