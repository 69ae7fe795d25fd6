// One-call compile pipeline: source text -> lexed -> parsed -> pass pipeline
// (omp-lower -> sema -> optimizer passes, see core/passes.h) -> backend-ready
// module. Used by the mzc driver, the interpreter-based tests, and the
// examples.
//
// The pipeline after parsing is a PassManager (passes.h): `omp-lower` (the
// directive engine) and `sema` run as the first two passes; `opt_level >= 1`
// appends the optimizer (fold, dce-hoist) plus a `verify` re-analysis.
// `dump_ir` captures the module's S-expression dump after any named pass —
// the observability hook behind `mzc --dump-ir=<pass>` and the per-pass
// golden tests.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/passes.h"
#include "core/transform.h"
#include "lang/ast.h"
#include "lang/source.h"

namespace zomp::core {

struct CompileOptions {
  /// Run the OpenMP directive engine. When false, `//#omp` comments are
  /// ignored with a warning — the program compiles serially, exactly what a
  /// stock Zig compiler would do with the paper's directive comments.
  bool openmp = true;
  /// Module name used in dumps and generated code.
  std::string module_name = "main";
  /// 0: lower + sema only (the historical pipeline, and the library default
  /// so AST-golden callers see byte-identical output). 1: the full optimizer
  /// (mzc's default — see tools/mzc.cpp).
  int opt_level = 0;
  /// Pass names whose post-pass IR to capture in CompileResult::ir_dumps
  /// ("all" captures every pass). See PassManager::pass_names().
  std::vector<std::string> dump_ir;
};

struct CompileResult {
  std::unique_ptr<lang::SourceFile> file;
  std::unique_ptr<lang::Module> module;
  lang::Diagnostics diags;
  /// Directive-engine counters (omp-lower stage); alias of
  /// pass_stats.transform kept for existing callers.
  TransformStats stats;
  /// Full pipeline counters, including the optimizer passes.
  PassStats pass_stats;
  /// (pass name, dump_ast text) in execution order, for the passes requested
  /// via CompileOptions::dump_ir.
  std::vector<std::pair<std::string, std::string>> ir_dumps;
  bool ok = false;

  /// Rendered diagnostics (empty string if none).
  std::string diagnostics_text() const {
    return file ? diags.render(*file) : std::string();
  }
};

/// Runs the full pipeline over `source`.
CompileResult compile_source(std::string source, const CompileOptions& options = {});

}  // namespace zomp::core
