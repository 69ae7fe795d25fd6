// Benchmark driver for one workload in one process.
//
//   zbench --workload cg --seed 1 --seconds 3 --threads 4 [--modes zig,ref,t1]
//   zbench_traced ... --modes zig --trace-out build-bench/trace/cg.json
//
// Set-up time is input generation plus the warm-up solve of the first mode,
// which also spawns the team; the oracle computation and the other modes'
// warm-up solves are not counted in it, and no warm-up is a sample. Timed
// solves then run in rounds until --seconds have passed: every round solves
// each mode once in a seed-shuffled order. Every solve is checked. The last
// line of stdout is one JSON object with the set-up time, peak RSS, the check
// counts and every solve time.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "runtime/api.h"
#include "workloads.h"

#ifdef ZBENCH_TRACED
#include "abi_trace.h"
#endif

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string flag(int argc, char** argv, const char* name,
                 const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "zbench: %s\nusage: zbench --workload NAME --seed N --seconds S "
               "--threads T [--modes zig,ref,t1] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = flag(argc, argv, "--workload", "");
  const std::uint64_t seed =
      std::strtoull(flag(argc, argv, "--seed", "0").c_str(), nullptr, 10);
  const double seconds = std::atof(flag(argc, argv, "--seconds", "1").c_str());
  const int threads = std::atoi(flag(argc, argv, "--threads", "1").c_str());
  const std::string mode_list = flag(argc, argv, "--modes", "zig,ref,t1");
#ifdef ZBENCH_TRACED
  const std::string trace_out = flag(argc, argv, "--trace-out", "trace.json");
#endif
  if (threads < 1 || seconds <= 0.0) usage("bad --threads or --seconds");
  auto w = zbench::make_workload(name);
  if (!w) usage("unknown --workload");

  std::vector<std::string> modes;
  for (std::size_t pos = 0; pos <= mode_list.size();) {
    const std::size_t end = std::min(mode_list.find(',', pos), mode_list.size());
    const std::string m = mode_list.substr(pos, end - pos);
    if (m != "zig" && m != "ref" && m != "t1") usage("unknown mode");
    modes.push_back(m);
    pos = end + 1;
  }

  long attempted = 0;
  long failed = 0;
  // Runs one solve of `mode`, untimed preparation excluded; returns seconds.
  auto solve = [&](const std::string& mode) {
    bool ok = false;
    double dt = 0.0;
    if (mode == "ref") {
      w->prepare_ref();
      const double t0 = now_s();
      w->solve_ref(threads);
      dt = now_s() - t0;
      ok = w->ref_ok();
    } else {
      zomp::set_num_threads(mode == "t1" ? 1 : threads);
      w->prepare_zig();
      const double t0 = now_s();
      w->solve_zig();
      dt = now_s() - t0;
      ok = w->zig_ok();
    }
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "zbench: %s %s solve failed its check\n",
                   name.c_str(), mode.c_str());
    }
    return dt;
  };

  double t = now_s();
  w->make_inputs(seed, threads);
  double setup = now_s() - t;
  w->make_oracle();
  t = now_s();
  solve(modes.front());
  setup += now_s() - t;
  for (std::size_t i = 1; i < modes.size(); ++i) solve(modes[i]);

  std::map<std::string, std::vector<double>> samples;
  std::mt19937_64 order_rng(seed * 0x9e3779b97f4a7c15ull + 1);
#ifdef ZBENCH_TRACED
  int traced = 0;
#endif
  std::vector<std::string> order = modes;
  const double deadline = now_s() + seconds;
  while (now_s() < deadline) {
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const auto& m : order) {
#ifdef ZBENCH_TRACED
      if (!zbench::trace::has_room()) break;
      zbench::trace::solve_begin(traced++);
      samples[m].push_back(solve(m));
      zbench::trace::solve_end();
#else
      samples[m].push_back(solve(m));
#endif
    }
#ifdef ZBENCH_TRACED
    if (!zbench::trace::has_room()) break;
#endif
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
              "\"setup_s\":%.9g,\"rss_mb\":%.6g,\"attempted\":%ld,"
              "\"failed\":%ld,\"samples\":{",
              name.c_str(), static_cast<unsigned long long>(seed), threads,
              setup, static_cast<double>(ru.ru_maxrss) / 1024.0, attempted,
              failed);
  const char* sep = "";
  for (const auto& [mode, v] : samples) {
    std::printf("%s\"%s\":[", sep, mode.c_str());
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.9g", i ? "," : "", v[i]);
    }
    std::printf("]");
    sep = ",";
  }
  std::printf("}");
#ifdef ZBENCH_TRACED
  std::printf(",\"trace\":%s",
              zbench::trace::finish(trace_out, threads).c_str());
#endif
  std::printf("}\n");
  return failed == 0 ? 0 : 1;
}
