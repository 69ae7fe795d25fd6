// mzc — the MiniZig+OpenMP transpiler driver (S8 in DESIGN.md).
//
// This is the build-time face of the paper's compiler work: it runs the
// front end (lex/parse), the OpenMP directive engine (outline + runtime-call
// insertion), sema, and the C++ backend, writing a translation unit that
// compiles against the zomp runtime.
//
// Usage:
//   mzc INPUT.mz -o OUT.cpp [--header OUT.h] [--safe] [--main]
//       [--no-omp] [--module NAME] [-O0|-O1] [--dump-ir=PASS]
//       [--dump-ast] [--dump-stats]
//
// Flags:
//   -o FILE        write the generated C++ (required unless a --dump flag)
//   --header FILE  also write a header with the module's pub declarations
//   --safe         bounds-checked slices (Zig ReleaseSafe analogue)
//   --main         emit an `int main()` wrapper around `pub fn main`
//   --no-omp       ignore //#omp directives (serial build, stock-Zig view)
//   --module NAME  module/namespace name (default: input basename)
//   -O0 / -O1      optimizer level (default -O1: fold, dce-hoist — see
//                  core/passes.h)
//   --dump-ir=PASS print the module's IR after pass PASS to stdout (one of
//                  the pipeline pass names, or "all"; repeatable)
//   --dump-ast     print the transformed AST instead of generating code
//   --dump-stats   print directive-engine + optimizer statistics to stderr
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "codegen/codegen.h"
#include "core/pipeline.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s INPUT.mz -o OUT.cpp [--header OUT.h] [--safe] "
               "[--main] [--no-omp] [--module NAME] [-O0|-O1] "
               "[--dump-ir=PASS] [--dump-ast] [--dump-stats]\n",
               argv0);
  return 2;
}

std::string basename_no_ext(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  for (char& c : base) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
  }
  return base;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mzc: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  std::string header;
  std::string module_name;
  bool safe = false;
  bool emit_main = false;
  bool openmp = true;
  bool dump_ast = false;
  bool dump_stats = false;
  int opt_level = 1;
  std::vector<std::string> dump_ir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--header" && i + 1 < argc) {
      header = argv[++i];
    } else if (arg == "--module" && i + 1 < argc) {
      module_name = argv[++i];
    } else if (arg == "--safe") {
      safe = true;
    } else if (arg == "--main") {
      emit_main = true;
    } else if (arg == "--no-omp") {
      openmp = false;
    } else if (arg == "-O0") {
      opt_level = 0;
    } else if (arg == "-O1") {
      opt_level = 1;
    } else if (arg.rfind("--dump-ir=", 0) == 0) {
      dump_ir.push_back(arg.substr(std::strlen("--dump-ir=")));
    } else if (arg == "--dump-ast") {
      dump_ast = true;
    } else if (arg == "--dump-stats") {
      dump_stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mzc: unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty() || (output.empty() && !dump_ast && dump_ir.empty())) {
    return usage(argv[0]);
  }
  if (module_name.empty()) module_name = basename_no_ext(input);

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "mzc: cannot read '%s'\n", input.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();

  zomp::core::CompileOptions options;
  options.openmp = openmp;
  options.module_name = module_name;
  options.opt_level = opt_level;
  options.dump_ir = dump_ir;
  auto result = zomp::core::compile_source(source.str(), options);

  const std::string diag_text = result.diagnostics_text();
  if (!diag_text.empty()) std::fputs(diag_text.c_str(), stderr);
  for (const auto& [pass, ir] : result.ir_dumps) {
    std::fprintf(stdout, ";; after %s\n", pass.c_str());
    std::fputs(ir.c_str(), stdout);
  }
  if (!result.ok) return 1;

  if (dump_stats) {
    std::fprintf(stderr,
                 "mzc: %d directives, %d parallel regions outlined, %d "
                 "worksharing loops, %d tasks\n",
                 result.stats.directives_seen, result.stats.regions_outlined,
                 result.stats.ws_loops, result.stats.tasks_outlined);
    if (opt_level >= 1) {
      std::fprintf(stderr,
                   "mzc: -O1: %d operands folded, %d dead captures, %d "
                   "hoisted forks\n",
                   result.pass_stats.folded_operands,
                   result.pass_stats.dead_captures,
                   result.pass_stats.hoisted_forks);
    }
  }
  if (dump_ast) {
    std::fputs(zomp::lang::dump_ast(*result.module).c_str(), stdout);
  }
  if (output.empty()) return 0;

  zomp::codegen::CodegenOptions cg;
  cg.safety_checks = safe;
  cg.emit_main = emit_main;
  if (!write_file(output, zomp::codegen::emit_cpp(*result.module, cg))) return 1;
  if (!header.empty() &&
      !write_file(header, zomp::codegen::emit_header(*result.module, cg))) {
    return 1;
  }
  return 0;
}
