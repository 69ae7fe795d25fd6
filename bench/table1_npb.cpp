// Table 1 reproduction (the paper's headline result).
//
// Paper: runtime of the benchmark reference implementations vs the Zig+OpenMP
// ports over one 128-core ARCHER2 node, NPB class C. Reference languages:
// Fortran+OpenMP for CG and EP, C+OpenMP for IS and Mandelbrot. Finding:
// Zig ~11-12% faster on CG/EP, ~5-11% slower on IS/Mandelbrot.
//
// This harness reproduces the comparison shape on host hardware:
//   Reference  = hand-written C++ kernels on the zomp runtime; CG and EP are
//                invoked through the Fortran ABI shim (trailing-underscore
//                symbols, all-by-reference) exactly as the paper calls its
//                Fortran references.
//   Zig+OpenMP = the MiniZig kernels (src/npb/kernels/*.mz) transpiled by
//                mzc at build time through the directive engine.
//
// Defaults use the laptop-scale "Q" size so the whole suite runs in seconds;
// --class S|W|A selects real NPB classes, --threads the team size,
// --repeats best-of count. Both take comma lists (--class S,W --threads
// 1,2,4 runs every pair in turn). --out FILE writes every run as JSON: per
// row and side the min and median of the repeats, zig/ref of the minima, and
// the verify result. Results are verified before timing is reported.
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cg_mz.h"
#include "ep_mz.h"
#include "is_mz.h"
#include "mandel_mz.h"
#include "npb/cg.h"
#include "npb/ep.h"
#include "npb/fortran_iface.h"
#include "npb/is.h"
#include "npb/mandel.h"
#include "runtime/api.h"

namespace {

using bench::slice_of;

struct Row {
  const char* name;
  bench::Timing reference;
  bench::Timing zig;
  bool ref_ok;
  bool zig_ok;
};

struct Sizes {
  int ep_m;
  char cg_class;
  char is_class;
  zomp::npb::MandelParams mandel;
};

Sizes sizes_for(const std::string& cls) {
  Sizes s;
  if (cls == "Q") {
    // Quick default: seconds on a laptop, but large enough that compute
    // (not fork/barrier overhead) dominates, so the ratios are meaningful.
    s.ep_m = 22;
    s.cg_class = 'W';
    s.is_class = 'W';
    s.mandel = {512, 512, 2000};
  } else if (cls == "S") {
    s.ep_m = 24;
    s.cg_class = 'S';
    s.is_class = 'S';
    s.mandel = {1024, 1024, 5000};
  } else if (cls == "W") {
    s.ep_m = 25;
    s.cg_class = 'W';
    s.is_class = 'W';
    s.mandel = {2048, 2048, 10000};
  } else {  // "A"
    s.ep_m = 28;
    s.cg_class = 'A';
    s.is_class = 'A';
    s.mandel = {4096, 4096, 20000};
  }
  return s;
}

Row run_cg(char cls_name, int threads, int repeats) {
  using namespace zomp::npb;
  const CgClass cls = cg_class(cls_name);
  SparseMatrix a = cg_make_matrix(cls.na, cls.nonzer);
  const std::int64_t n = a.n;

  Row row{"CG", {}, {}, false, false};

  // Reference: through the Fortran ABI (by-reference scalars, bare array
  // pointers) — the paper's CG reference is Fortran+OpenMP.
  double zeta = 0.0;
  double rnorm = 0.0;
  const std::int64_t niter = cls.niter;
  const std::int64_t nth = threads;
  row.reference = bench::measure(repeats, [&] {
    cg_solve_(&n, a.rowstr.data(), a.colidx.data(), a.values.data(), &niter,
              &cls.shift, &nth, &zeta, &rnorm);
  });
  row.ref_ok = cg_verify(CgResult{zeta, rnorm, cls.niter}, cls);

  // Zig+OpenMP: the transpiled MiniZig kernel on the same matrix.
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> z(static_cast<std::size_t>(n));
  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> p(static_cast<std::size_t>(n));
  std::vector<double> q(static_cast<std::size_t>(n));
  std::vector<double> rnorm_out(1, 0.0);
  zomp::set_num_threads(threads);
  double mz_zeta = 0.0;
  row.zig = bench::measure(repeats, [&] {
    mz_zeta = mzgen_cg_mz::cg_run(
        slice_of(a.rowstr), slice_of(a.colidx), slice_of(a.values),
        slice_of(x), slice_of(z), slice_of(r), slice_of(p), slice_of(q),
        cls.niter, cls.shift, slice_of(rnorm_out));
  });
  row.zig_ok = cg_verify(CgResult{mz_zeta, rnorm_out[0], cls.niter}, cls);
  return row;
}

Row run_ep(int m, int threads, int repeats) {
  using namespace zomp::npb;
  // The class descriptor with matching m (if any) provides verification.
  EpClass cls = ep_class('m');
  for (char c : {'S', 'W', 'A', 'm'}) {
    if (ep_class(c).m == m) cls = ep_class(c);
  }

  Row row{"EP", {}, {}, false, false};

  const std::int64_t m64 = m;
  const std::int64_t nth = threads;
  double sx = 0.0;
  double sy = 0.0;
  std::int64_t accepted = 0;
  row.reference = bench::measure(repeats, [&] {
    ep_kernel_(&m64, &nth, &sx, &sy, &accepted);
  });
  EpResult ref;
  ref.sx = sx;
  ref.sy = sy;
  row.ref_ok = cls.m == m ? ep_verify(ref, cls) : true;

  std::vector<double> q(10, 0.0);
  std::vector<double> res(3, 0.0);
  zomp::set_num_threads(threads);
  row.zig = bench::measure(repeats, [&] {
    mzgen_ep_mz::ep_run(m, slice_of(q), slice_of(res));
  });
  EpResult mz;
  mz.sx = res[0];
  mz.sy = res[1];
  // sx/sy alone would pass a broken histogram: the Zig pair count must
  // equal the reference's, and the annulus counts must sum to it.
  const double binned = std::accumulate(q.begin(), q.end(), 0.0);
  row.zig_ok = (cls.m == m ? ep_verify(mz, cls) : true) &&
               res[2] == static_cast<double>(accepted) &&
               binned == static_cast<double>(accepted);
  return row;
}

Row run_is(char cls_name, int threads, int repeats) {
  using namespace zomp::npb;
  const IsClass cls = is_class(cls_name);
  const std::vector<std::int64_t> keys0 =
      is_make_keys(cls.total_keys, cls.max_key);

  Row row{"IS", {}, {}, false, false};

  // Verification (checksum + sorted-order) runs once, untimed; the timed
  // runs cover the ranking rounds only, matching the MiniZig kernel's scope.
  row.ref_ok =
      is_verify(is_parallel(keys0, cls.max_key, cls.iterations, threads), cls);
  IsResult ref;
  row.reference = bench::measure(repeats, [&] {
    ref = is_parallel(keys0, cls.max_key, cls.iterations, threads,
                      /*full_sort=*/false);
  });
  row.ref_ok = row.ref_ok && ref.rank_checksum == cls.verify_checksum;

  const std::int64_t expect_mod =
      is_rank_checksum_mod(keys0, cls.max_key, cls.iterations);
  std::vector<std::int64_t> keys = keys0;
  std::vector<std::int64_t> count(static_cast<std::size_t>(cls.max_key));
  std::vector<std::int64_t> hist(
      static_cast<std::size_t>(cls.max_key) *
      static_cast<std::size_t>(std::max(threads, zomp::max_threads())));
  zomp::set_num_threads(threads);
  std::int64_t mz_checksum = 0;
  row.zig = bench::measure(repeats, [&] {
    keys = keys0;
    mz_checksum = mzgen_is_mz::is_run(slice_of(keys), cls.max_key,
                                      cls.iterations, slice_of(count),
                                      slice_of(hist));
  });
  row.zig_ok = mz_checksum == expect_mod;
  return row;
}

Row run_mandel(const zomp::npb::MandelParams& params, int threads,
               int repeats) {
  using namespace zomp::npb;
  Row row{"Mandelbrot", {}, {}, false, false};

  // Small serial render pins down the expected counts exactly.
  const MandelResult expect = mandel_serial(params);

  MandelResult ref;
  row.reference = bench::measure(repeats, [&] {
    ref = mandel_parallel(params, threads, /*schedule=dynamic*/ 1, 1);
  });
  row.ref_ok =
      ref.inside == expect.inside && ref.iter_checksum == expect.iter_checksum;

  std::vector<std::int64_t> res(2, 0);
  zomp::set_num_threads(threads);
  row.zig = bench::measure(repeats, [&] {
    mzgen_mandel_mz::mandel_run(params.width, params.height, params.max_iter,
                                slice_of(res));
  });
  row.zig_ok = res[0] == expect.inside &&
               static_cast<std::uint64_t>(res[1]) == expect.iter_checksum;
  return row;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) items.push_back(item);
  return items;
}

/// One (class, threads) run: prints its table and returns the JSON object
/// for --out; `ok` turns false if any row fails verification.
std::string run_table(const std::string& cls, int threads, int repeats,
                      bool& ok) {
  const Sizes sizes = sizes_for(cls);
  std::printf("# Table 1 — Performance of benchmark reference implementation "
              "against the Zig(MiniZig)+OpenMP approach\n");
  std::printf("# paper: 128 cores (ARCHER2), NPB class C | this run: %d "
              "threads, size '%s', best of %d\n",
              threads, cls.c_str(), repeats);
  std::printf("# paper runtimes (s): CG ref 2.07 / zig 1.81; EP ref 1.42 / "
              "zig 1.27; IS ref 0.24 / zig 0.27; Mandelbrot ref 5.08 / zig "
              "5.36\n\n");

  const Row rows[] = {
      run_cg(sizes.cg_class, threads, repeats),
      run_ep(sizes.ep_m, threads, repeats),
      run_is(sizes.is_class, threads, repeats),
      run_mandel(sizes.mandel, threads, repeats),
  };

  std::printf("%-12s %14s %14s %10s %8s\n", "Benchmark", "Reference(s)",
              "Zig+OpenMP(s)", "Zig/Ref", "Verify");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"class\": \"%s\", \"threads\": %d, \"repeats\": %d, "
                "\"rows\": [",
                cls.c_str(), threads, repeats);
  std::string json = buf;
  for (const Row& row : rows) {
    const bool verified = row.ref_ok && row.zig_ok;
    ok = ok && verified;
    const double ratio = row.zig.min_s / row.reference.min_s;
    std::printf("%-12s %14.4f %14.4f %9.3fx %8s\n", row.name,
                row.reference.min_s, row.zig.min_s, ratio,
                verified ? "ok" : "FAIL");
    std::snprintf(buf, sizeof buf,
                  "%s\n      {\"name\": \"%s\", \"ref_min_s\": %.6g, "
                  "\"ref_median_s\": %.6g, \"zig_min_s\": %.6g, "
                  "\"zig_median_s\": %.6g, \"zig_over_ref\": %.4f, "
                  "\"verified\": %s}",
                  &row == rows ? "" : ",", row.name, row.reference.min_s,
                  row.reference.median_s, row.zig.min_s, row.zig.median_s,
                  ratio, verified ? "true" : "false");
    json += buf;
  }
  std::printf("\n");
  return json + "\n    ]}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const std::vector<std::string> classes = split_list(args.get("class", "Q"));
  const std::vector<std::string> thread_counts = split_list(
      args.get("threads", std::to_string(zomp::num_procs())));
  const int repeats = static_cast<int>(args.get_int("repeats", 1));
  const std::string out = args.get("out", "");

  bool all_ok = true;
  std::string runs;
  for (const std::string& cls : classes) {
    for (const std::string& t : thread_counts) {
      const int threads = static_cast<int>(std::strtol(t.c_str(), nullptr, 10));
      runs += (runs.empty() ? "\n" : ",\n") +
              run_table(cls, threads, repeats, all_ok);
    }
  }
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "table1_npb: cannot write %s\n", out.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\"benchmark\": \"table1_npb\", \"time\": \"min and median "
                 "of repeats, s; zig_over_ref from the minima\", \"runs\": "
                 "[%s\n]}\n",
                 runs.c_str());
    std::fclose(f);
  }
  return all_ok ? 0 : 1;
}
