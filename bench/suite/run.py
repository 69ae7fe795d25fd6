#!/usr/bin/env python3
"""zomp benchmark suite: six verified MiniZig workloads, end to end and per layer.

Usage (from the repository root; standard library only):

  python3 bench/suite/run.py --workload cg --seed 1 --seconds 15 --trace 0
      One workload. --trace 0 prints the end-to-end metrics, --trace 1 the
      per-layer ones (traced run plus layer probes). The last stdout line is
      {"correct", "attempted", "failed", "metrics"}.
  python3 bench/suite/run.py [--seed N] [--seconds S] [--out FILE]
      Every workload, untraced then traced; --out writes the full record.
  python3 bench/suite/run.py compare A.json B.json
      Per-workload medians of two full records, flagging regressions.
  python3 bench/suite/run.py --smoke
      Short self-check: every solve verifies, the trace files parse, no span
      is dropped, and the traced call counts match the kernels' structure.

Every invocation first configures and builds build-bench/ (a no-op when it is
up to date). Child processes run with every OMP_*, GOMP_* and ZOMP_* variable
unset, on T = min(4, available CPUs) threads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join("bench", "suite")
BUILD = os.path.join(ROOT, "build-bench")

WORKLOADS = ["cg", "ep", "is", "mandel", "taskgraph", "jacobi"]

# An untraced run is this sequence of workload processes. Team processes
# ("zig,ref") interleave both solves on T threads and each give one set-up
# time, so set-up, and the first fork it includes, is measured three times.
# 1-thread solves get processes of their own: beside a team's idle workers
# they varied about three times as much from process to process as in a
# process that never forked a team. Even alone, a 1-thread process now and
# then runs a third slower throughout, so there are four of them.
PROCESS_MODES = ("zig,ref", "t1", "t1", "zig,ref", "t1", "t1", "zig,ref")
T1_SHARE = 0.3  # of the measured seconds

# name -> (unit, the zbench sample set it is the median of); the others are
# medians over the team processes
END_TO_END = {
    "zig_s": ("s", "zig"),
    "ref_s": ("s", "ref"),
    "zig_t1_s": ("s", "t1"),
    "setup_s": ("s", None),
    "rss_mb": ("MB", None),
}

# Per-layer metrics from the traced run: name -> (unit, better, which
# end-to-end metric on which workload it should move). Times inside the
# run are shares of the team's thread-time (T x solve wall time), so a layer
# a workload never calls reads 0 rather than an absent value.
TRACE_LAYER = {
    "pool.forks": ("count", "lower", "zig_s on jacobi"),
    "pool.handoff_us": ("us", "lower", "zig_s on jacobi; setup_s everywhere; not ep, mandel"),
    "worksharing.claims": ("count", "lower", "zig_s on mandel; not cg"),
    "worksharing.share": ("1", "lower", "zig_s on mandel; not cg"),
    "barrier.episodes": ("count", "lower", "zig_s on cg, then is; not ep"),
    "barrier.wait_share": ("1", "lower", "zig_s on cg, then is; not ep"),
    "team.singles": ("count", "lower", "zig_s on cg; not mandel, ep"),
    "team.single_share": ("1", "lower", "zig_s on cg; not mandel, ep"),
    "reduce.calls": ("count", "lower", "zig_s on jacobi; not ep"),
    "reduce.wait_share": ("1", "lower", "zig_s on jacobi; not ep"),
    "sync.atomics": ("count", "lower", "zig_s on ep; not cg"),
    "sync.atomic_share": ("1", "lower", "zig_s on ep; not cg"),
    "task.spawned": ("count", "lower", "zig_s on taskgraph only"),
    "task.spawn_share": ("1", "lower", "zig_s on taskgraph only"),
    "task.exec_share": ("1", "lower", "zig_s on taskgraph only"),
    "kernel.compute_share": ("1", "higher", "zig_s vs ref_s on is, mandel; zig_t1_s"),
    "kernel.serial_share": ("1", "lower", "zig_s vs ref_s on cg; zig_t1_s"),
    "kernel.imbalance": ("1", "lower", "zig_s on mandel, taskgraph"),
    "trace.solve_ms": ("ms", "lower", "traced zig_s, for converting shares"),
    "trace.overhead_frac": ("1", "lower", "none: cost of tracing"),
}

# Layer probes: op -> the workload whose zig_s it should move.
PROBES = {
    "fork": "jacobi",
    "barrier": "cg",
    "reduction": "jacobi",
    "single": "cg",
    "dynamic1": "mandel",
    "atomic": "ep",
    "task_spawn": "taskgraph",
    "task_dep": "taskgraph",
}


def per_layer_metrics():
    """name -> (unit, better, moves) for every per-layer metric, in order."""
    out = dict(TRACE_LAYER)
    for op, workload in PROBES.items():
        out["probe.%s_ns" % op] = ("ns", "lower", "zig_s on %s" % workload)
        out["probe.%s_ns.gomp" % op] = ("ns", "lower", "none: libgomp baseline")
    return out


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def team_threads():
    return min(4, len(os.sched_getaffinity(0)))


def child_env():
    """The environment of every child: no OpenMP or zomp settings, and
    temporary files (the compiler's) kept inside the build tree."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "ZOMP_"))}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    return env


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "runtime"),
                   os.path.join(SUITE, "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full zomp source tree" % needed)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, SUITE), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(team_threads())])
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def run_json(cmd, timeout):
    """Runs one child; returns (exit code, parsed last stdout line or None)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def zbench(exe, workload, seed, seconds, modes, extra=()):
    cmd = [os.path.join(BUILD, exe), "--workload", workload, "--seed", str(seed),
           "--seconds", "%.3f" % seconds, "--threads", str(team_threads()),
           "--modes", modes] + list(extra)
    code, out = run_json(cmd, timeout=seconds + 120)
    if out is None:
        fail("%s %s produced no result" % (exe, workload))
    out["exit_code"] = code
    return out


def probe(exe, op, seconds):
    cmd = [os.path.join(BUILD, exe), "--op", op, "--threads",
           str(team_threads()), "--seconds", "%.3f" % seconds]
    code, out = run_json(cmd, timeout=seconds + 60)
    if out is None:
        fail("%s --op %s produced no result" % (exe, op))
    out["exit_code"] = code
    return out


# -- statistics ----------------------------------------------------------------

def summary(values):
    """Median, quartiles and the highest percentile with >= 10 samples
    beyond it (None when there are fewer than 20 samples)."""
    v = sorted(values)
    n = len(v)
    q1, med, q3 = (statistics.quantiles(v, n=4) if n >= 2 else [v[0]] * 3)
    tail = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100.0) >= 10:
            tail = (pct, v[min(n - 1, int(round(pct / 100.0 * (n - 1))))])
            break
    return {"value": statistics.median(v), "q1": q1, "q3": q3, "n": n,
            "tail": tail}


def fmt_summary(name, unit, s):
    tail = ("  p%g %.6g" % s["tail"]) if s["tail"] else ""
    return "%-20s %12.6g %-5s  n=%-4d q1 %.6g  q3 %.6g%s" % (
        name, s["value"], unit, s["n"], s["q1"], s["q3"], tail)


# -- the two kinds of run ------------------------------------------------------

def run_end_to_end(workload, seed, seconds):
    share = {"t1": T1_SHARE, "zig,ref": 1.0 - T1_SHARE}
    procs = [zbench("zbench", workload, seed,
                    seconds * share[modes] / PROCESS_MODES.count(modes), modes)
             for modes in PROCESS_MODES]
    team = [p for p, modes in zip(procs, PROCESS_MODES) if modes != "t1"]
    pooled = {"zig": [], "ref": [], "t1": []}
    for p in procs:
        for mode, values in p["samples"].items():
            pooled[mode].extend(values)
    stats = {}
    for name, (unit, mode) in END_TO_END.items():
        if mode is not None:
            values = pooled[mode]
        else:
            values = [p[name] for p in team]
        if not values:
            fail("%s: no %s samples; raise --seconds" % (workload, name))
        stats[name] = dict(summary(values), unit=unit)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    correct = failed == 0 and all(p["exit_code"] == 0 for p in procs)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "stats": stats}


def run_per_layer(workload, seed, seconds):
    # A quarter untraced (the base of trace.overhead_frac), two fifths traced,
    # the rest shared by the sixteen probe processes.
    plain = zbench("zbench", workload, seed, 0.25 * seconds, "zig")
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    trace_file = os.path.join(BUILD, "trace", workload + ".json")
    traced = zbench("zbench_traced", workload, seed, 0.4 * seconds, "zig",
                    ["--trace-out", trace_file])
    probe_s = 0.35 * seconds / (2 * len(PROBES))
    probes = [probe(exe, op, probe_s)
              for op in PROBES for exe in ("zbench_probe", "zbench_gomp")]

    values = dict(traced["trace"]["metrics"])
    values["trace.overhead_frac"] = (
        statistics.median(traced["samples"]["zig"]) /
        statistics.median(plain["samples"]["zig"]) - 1.0)
    for p in probes:
        suffix = ".gomp" if p["runtime"] == "gomp" else ""
        values["probe.%s_ns%s" % (p["op"], suffix)] = p["ns"]
    units = per_layer_metrics()
    missing = set(units) - set(values)
    if missing:
        fail("%s: per-layer metrics missing: %s" % (workload, sorted(missing)))
    attempted = plain["attempted"] + traced["attempted"] + len(probes)
    failed = (plain["failed"] + traced["failed"] +
              sum(1 for p in probes if not p["ok"]))
    correct = (failed == 0 and plain["exit_code"] == 0 and
               traced["exit_code"] == 0 and traced["trace"]["dropped"] == 0 and
               all(p["exit_code"] == 0 for p in probes))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": {k: values[k] for k in units},
            "trace_file": os.path.relpath(trace_file, ROOT)}


def print_end_to_end(workload, r):
    print("== %s: end to end (T=%d)" % (workload, team_threads()))
    for name, s in r["stats"].items():
        print("  " + fmt_summary(name, s["unit"], s))
    st = r["stats"]
    print("  zig/ref %.3f   1-thread/T-thread speed-up of zig %.3f   "
          "(not gated)" % (st["zig_s"]["value"] / st["ref_s"]["value"],
                           st["zig_t1_s"]["value"] / st["zig_s"]["value"]))
    print("  %-20s %12.6g %-5s  (%d of %d solves; bound 0)" % (
        "failed_frac", r["failed"] / r["attempted"], "1", r["failed"],
        r["attempted"]))


def print_per_layer(workload, r):
    print("== %s: per layer (trace in %s)" % (workload, r["trace_file"]))
    for name, (unit, _, moves) in per_layer_metrics().items():
        print("  %-24s %12.6g %-5s  moves: %s" % (name, r["values"][name],
                                                 unit, moves))


def result_line(r, metrics):
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


# -- compare -------------------------------------------------------------------

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(path_a, path_b):
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    regressions = 0
    print("%-10s %-9s %11s %23s %11s %23s %8s %6s  %s" % (
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3",
        "B/A-1", "bound", "verdict"))
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        for name, m in bounds.items():
            sa = a["workloads"][w]["end_to_end"][name]
            sb = b["workloads"][w]["end_to_end"][name]
            delta = sb["value"] / sa["value"] - 1.0
            worse = delta if m["better"] == "lower" else -delta
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (sa, sb))
            if spread > m["bound"]:
                verdict = "unresolved (spread %.3f)" % spread
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print("%-10s %-9s %11.5g %11.5g..%-11.5g %11.5g %11.5g..%-11.5g "
                  "%+8.3f %6.3f  %s" % (w, name, sa["value"], sa["q1"], sa["q3"],
                                        sb["value"], sb["q1"], sb["q3"], delta,
                                        m["bound"], verdict))
    sys.exit(1 if regressions else 0)


# -- smoke ---------------------------------------------------------------------

# Exact traced counts per solve, from the kernels' structure.
SMOKE_COUNTS = {
    # 15 regions; per region 1 + 2*25 + 1 singles and 2 + 5*25 + 1 barriers,
    # which every member calls.
    "cg": {"pool.forks": 15, "team.singles": 15 * 52, "barrier_per_member": 15 * 128},
    "ep": {"pool.forks": 1, "reduce.calls": 1},
    "is": {"pool.forks": 10, "team.singles": 10, "barrier_per_member": 30},
    "mandel": {"pool.forks": 1, "reduce.calls": 1, "claimed_iters": 512},
    "taskgraph": {"pool.forks": 1, "team.singles": 1, "task.spawned": 256 * 257 // 2},
    "jacobi": {"pool.forks": 4000, "reduce.calls": 4000, "claimed_iters": 4000 * 128},
}


def smoke():
    problems = []
    bench = load_benchmark()
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    emitted = {name: unit for name, (unit, _) in END_TO_END.items()}
    emitted.update({name: m[0] for name, m in per_layer_metrics().items()})
    if declared != emitted:
        problems.append("BENCHMARK.json and run.py name different metrics "
                        "or units: %s" % sorted(set(declared.items()) ^
                                                set(emitted.items())))
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json and run.py name different workloads")
    for w in WORKLOADS:
        plain = zbench("zbench", w, 0, 0.2, "zig,ref,t1")
        trace_file = os.path.join(BUILD, "trace", "smoke_%s.json" % w)
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        traced = zbench("zbench_traced", w, 0, 0.2, "zig",
                        ["--trace-out", trace_file])
        t = traced["trace"]
        got = dict(t["metrics"])
        got["claimed_iters"] = t["claimed_iters"]
        for name, want in SMOKE_COUNTS[w].items():
            if name == "barrier_per_member":
                members = t["barrier_calls_per_member"]
                if len(members) != team_threads() or any(c != want for c in members):
                    problems.append("%s: barrier calls per member %s, want %d on %d members"
                                    % (w, members, want, team_threads()))
            elif got[name] != want:
                problems.append("%s: %s = %s, want %s" % (w, name, got[name], want))
        for r in (plain, traced):
            if r["failed"] or r["exit_code"]:
                problems.append("%s: %d of %d solves failed their check"
                                % (w, r["failed"], r["attempted"]))
        if t["dropped"]:
            problems.append("%s: %d spans dropped" % (w, t["dropped"]))
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            if not any(e.get("ph") == "X" for e in events):
                problems.append("%s: trace file has no spans" % w)
        except (OSError, ValueError, KeyError) as e:
            problems.append("%s: trace file unreadable: %s" % (w, e))
        print("smoke %-10s solves %d+%d, traced %d, spans dropped %d" % (
            w, plain["attempted"], traced["attempted"], t["solves"], t["dropped"]))
    for op in PROBES:
        for exe in ("zbench_probe", "zbench_gomp"):
            p = probe(exe, op, 0.02)
            if not p["ok"] or p["exit_code"]:
                problems.append("%s --op %s failed its check" % (exe, op))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


# -- main ----------------------------------------------------------------------

def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description="zomp benchmark suite")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", help="full runs: write the record here")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.smoke:
        smoke()

    if args.workload:
        if args.trace == 1:
            r = run_per_layer(args.workload, args.seed, args.seconds)
            print_per_layer(args.workload, r)
            units = per_layer_metrics()
            metrics = {k: {"value": v, "unit": units[k][0]}
                       for k, v in r["values"].items()}
        else:
            r = run_end_to_end(args.workload, args.seed, args.seconds)
            print_end_to_end(args.workload, r)
            metrics = {k: {"value": s["value"], "unit": s["unit"]}
                       for k, s in r["stats"].items()}
        result_line(r, metrics)
        sys.exit(0 if r["correct"] else 1)

    record = {"seed": args.seed, "seconds": args.seconds,
              "threads": team_threads(), "nproc": os.cpu_count(),
              "cpu": cpu_model(), "workloads": {}}
    all_ok = True
    for w in WORKLOADS:
        e2e = run_end_to_end(w, args.seed, args.seconds)
        print_end_to_end(w, e2e)
        layer = run_per_layer(w, args.seed, args.seconds)
        print_per_layer(w, layer)
        all_ok = all_ok and e2e["correct"] and layer["correct"]
        record["workloads"][w] = {
            "correct": e2e["correct"] and layer["correct"],
            "attempted": e2e["attempted"], "failed": e2e["failed"],
            "end_to_end": e2e["stats"], "per_layer": layer["values"]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if all_ok else 1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    main()
