// One-call compile pipeline: source text -> lexed -> parsed -> `omp-lower`
// (the directive engine, core/transform.h) -> `sema` (lang/sema.h) ->
// backend-ready module. Used by mzc, the interpreter-based tests and the
// examples.
//
// The module goes to the backends exactly as the two stages leave it;
// optimising the generated C++ is the host compiler's job, as optimising
// the paper's lowered Zig is LLVM's. `dump_ir` captures the module's
// S-expression dump after either stage — the observability hook behind
// `mzc --dump-ir=<stage>`.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

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
  /// Stage names whose post-stage IR to capture in CompileResult::ir_dumps:
  /// `omp-lower` (only when `openmp`), `sema`, or "all" for every stage that
  /// runs. Any other name is an error, reported before any stage runs.
  std::vector<std::string> dump_ir;
};

struct CompileResult {
  std::unique_ptr<lang::SourceFile> file;
  std::unique_ptr<lang::Module> module;
  lang::Diagnostics diags;
  /// Directive-engine counters (omp-lower stage).
  TransformStats stats;
  /// (stage name, dump_ast text) in execution order, for the stages
  /// requested via CompileOptions::dump_ir.
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
