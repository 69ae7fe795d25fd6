// EPCC-style layer probes, built twice: zbench_probe on zomp (the C++ API,
// plus the ABI's atomic, which is what generated code calls) and zbench_gomp
// as #pragma omp on GCC's libgomp (-DZBENCH_GOMP).
//
//   zbench_probe --op barrier --threads 4 --seconds 0.3
//
// Each op runs in batches of `reps` constructs inside (or, for fork, as)
// parallel regions of --threads members; the batch size is doubled until a
// batch takes 2 ms, batches then repeat until --seconds have passed, and the
// median batch time per construct is printed as one JSON line. Each probe
// checks that every construct did its work.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#ifndef ZBENCH_GOMP
#include "runtime/abi.h"
#include "runtime/hl.h"
#endif

namespace {

constexpr int kDynamicIters = 64;  // chunks per member per dynamic loop
constexpr int kChains = 16;        // independent dependence chains

int g_threads = 1;
std::atomic<long> g_done{0};  // work items completed, for the checks

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void work() { g_done.fetch_add(1, std::memory_order_relaxed); }

// Each probe runs `reps` constructs and returns how many work items that
// must have completed.

#ifdef ZBENCH_GOMP

long probe_fork(long reps) {
  for (long r = 0; r < reps; ++r) {
#pragma omp parallel num_threads(g_threads)
    work();
  }
  return reps * g_threads;
}

long probe_barrier(long reps) {
#pragma omp parallel num_threads(g_threads)
  {
    for (long r = 0; r < reps; ++r) {
#pragma omp barrier
    }
    work();
  }
  return g_threads;
}

long probe_reduction(long reps) {
  long sum = 0;
#pragma omp parallel num_threads(g_threads)
  for (long r = 0; r < reps; ++r) {
#pragma omp for reduction(+ : sum)
    for (int i = 0; i < g_threads; ++i) sum += 1;
  }
  g_done += sum;
  return reps * g_threads;
}

long probe_single(long reps) {
#pragma omp parallel num_threads(g_threads)
  for (long r = 0; r < reps; ++r) {
#pragma omp single
    work();
  }
  return reps;
}

long probe_dynamic1(long reps) {
  const int n = kDynamicIters * g_threads;
#pragma omp parallel num_threads(g_threads)
  for (long r = 0; r < reps; ++r) {
#pragma omp for schedule(dynamic, 1)
    for (int i = 0; i < n; ++i) work();
  }
  return reps * n;
}

long probe_atomic(long reps) {
  double x = 0.0;
#pragma omp parallel num_threads(g_threads)
  for (long r = 0; r < reps; ++r) {
#pragma omp atomic
    x += 1.0;
  }
  g_done += static_cast<long>(x);
  return reps * g_threads;
}

long probe_task_spawn(long reps) {
#pragma omp parallel num_threads(g_threads)
#pragma omp single
  for (long r = 0; r < reps; ++r) {
#pragma omp task
    work();
  }
  return reps;
}

long probe_task_dep(long reps) {
  int token[kChains] = {};
#pragma omp parallel num_threads(g_threads)
#pragma omp single
  for (long r = 0; r < reps; ++r) {
    int* t = &token[r % kChains];
#pragma omp task depend(inout : t[0]) firstprivate(t)
    {
      ++*t;
      work();
    }
  }
  return reps;
}

#else  // zomp

zomp::ParallelOptions team() {
  zomp::ParallelOptions o;
  o.num_threads = g_threads;
  return o;
}

long probe_fork(long reps) {
  for (long r = 0; r < reps; ++r) zomp::parallel([] { work(); }, team());
  return reps * g_threads;
}

long probe_barrier(long reps) {
  zomp::parallel(
      [&] {
        for (long r = 0; r < reps; ++r) zomp::barrier();
        work();
      },
      team());
  return g_threads;
}

long probe_reduction(long reps) {
  long sum = 0;
  zomp::parallel(
      [&] {
        for (long r = 0; r < reps; ++r) {
          const long s = zomp::reduce_each<long>(
              0, g_threads, 0L, std::plus<>{}, [](std::int64_t) { return 1L; });
          zomp::master([&] { sum += s; });
        }
      },
      team());
  g_done += sum;
  return reps * g_threads;
}

long probe_single(long reps) {
  zomp::parallel(
      [&] {
        for (long r = 0; r < reps; ++r) zomp::single([] { work(); });
      },
      team());
  return reps;
}

long probe_dynamic1(long reps) {
  const int n = kDynamicIters * g_threads;
  zomp::ForOptions dyn;
  dyn.schedule = zomp::rt::Schedule{zomp::rt::ScheduleKind::kDynamic, 1};
  zomp::parallel(
      [&] {
        for (long r = 0; r < reps; ++r) {
          zomp::for_each(0, n, [](std::int64_t) { work(); }, dyn);
        }
      },
      team());
  return reps * n;
}

long probe_atomic(long reps) {
  double x = 0.0;
  zomp::parallel(
      [&] {
        for (long r = 0; r < reps; ++r) zomp_atomic_add_f64(&x, 1.0);
      },
      team());
  g_done += static_cast<long>(x);
  return reps * g_threads;
}

long probe_task_spawn(long reps) {
  zomp::parallel(
      [&] {
        zomp::single([&] {
          for (long r = 0; r < reps; ++r) zomp::task([] { work(); });
        });
      },
      team());
  return reps;
}

long probe_task_dep(long reps) {
  int token[kChains] = {};
  zomp::parallel(
      [&] {
        zomp::single([&] {
          for (long r = 0; r < reps; ++r) {
            int* t = &token[r % kChains];
            zomp::task_depend({zomp::dep_inout(t)}, [t] {
              ++*t;
              work();
            });
          }
        });
      },
      team());
  return reps;
}

#endif

struct Op {
  const char* name;
  long (*run)(long reps);
};
constexpr Op kOps[] = {{"fork", probe_fork},
                       {"barrier", probe_barrier},
                       {"reduction", probe_reduction},
                       {"single", probe_single},
                       {"dynamic1", probe_dynamic1},
                       {"atomic", probe_atomic},
                       {"task_spawn", probe_task_spawn},
                       {"task_dep", probe_task_dep}};

std::string flag(int argc, char** argv, const char* name,
                 const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Operations per batch whose time is reported per operation: the dynamic
/// loop reports per chunk, everything else per construct.
long ops_per_batch(const std::string& op, long reps) {
  return op == "dynamic1" ? reps * kDynamicIters * g_threads : reps;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string op = flag(argc, argv, "--op", "");
  g_threads = std::atoi(flag(argc, argv, "--threads", "1").c_str());
  const double seconds = std::atof(flag(argc, argv, "--seconds", "0.3").c_str());
  const Op* probe = nullptr;
  for (const Op& o : kOps) {
    if (op == o.name) probe = &o;
  }
  if (probe == nullptr || g_threads < 1 || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s --op fork|barrier|reduction|single|dynamic1|"
                 "atomic|task_spawn|task_dep --threads T --seconds S\n",
                 argv[0]);
    return 2;
  }

  bool ok = true;
  auto batch = [&](long reps) {
    g_done = 0;
    const double t0 = now_s();
    const long expect = probe->run(reps);
    const double dt = now_s() - t0;
    ok = ok && g_done.load() == expect;
    return dt;
  };

  long reps = 1;
  while (batch(reps) < 2e-3 && reps < (1L << 24)) reps *= 2;
  std::vector<double> per_op_ns;
  const double deadline = now_s() + seconds;
  while (now_s() < deadline || per_op_ns.size() < 5) {
    per_op_ns.push_back(batch(reps) * 1e9 /
                        static_cast<double>(ops_per_batch(op, reps)));
  }
  std::sort(per_op_ns.begin(), per_op_ns.end());
  std::printf("{\"op\":\"%s\",\"runtime\":\"%s\",\"threads\":%d,"
              "\"ns\":%.6g,\"batches\":%zu,\"reps\":%ld,\"ok\":%s}\n",
              op.c_str(),
#ifdef ZBENCH_GOMP
              "gomp",
#else
              "zomp",
#endif
              g_threads, per_op_ns[per_op_ns.size() / 2], per_op_ns.size(),
              reps, ok ? "true" : "false");
  return ok ? 0 : 1;
}
