// C++ code generation from a transformed, sema-checked MiniZig module.
//
// The emitted translation unit targets the zomp C ABI (runtime/abi.h) the
// way the paper's Zig backend targets __kmpc_*: outlined functions become a
// typed `_impl` function plus a `void**`-unpacking microtask wrapper, fork
// statements build the argument array and call zomp_fork_call, worksharing
// loops call zomp_for_static_init / zomp_dispatch_next for their bounds.
//
// Build integration: mzc (src/tools/) runs this at build time over the .mz
// kernels in src/npb/kernels/, and the generated .cpp files compile into the
// bench binaries at native speed.
#pragma once

#include <string>

#include "lang/ast.h"

namespace zomp::codegen {

struct CodegenOptions {
  /// Emit `#define ZOMP_MZ_SAFE 1` so slice accesses are bounds-checked
  /// (Zig ReleaseSafe analogue). The ablate_safety bench flips this.
  bool safety_checks = false;
  /// Wrap `pub fn main` in a real C++ `int main()`.
  bool emit_main = false;
};

/// Returns the complete C++ translation unit text. The module must have
/// passed sema (symbol/type fields are consumed).
std::string emit_cpp(const lang::Module& module, const CodegenOptions& options = {});

/// Returns a small header declaring the module's `pub` functions, so
/// hand-written C++ (benches, examples) can call the generated kernels.
std::string emit_header(const lang::Module& module, const CodegenOptions& options = {});

/// C++ spelling of a MiniZig type (int64_t, double, mz::Slice<double>, ...).
std::string cpp_type(const lang::Type& type);

}  // namespace zomp::codegen
