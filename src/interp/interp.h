// Tree-walking interpreter for transformed MiniZig modules.
//
// The second backend of the pipeline (DESIGN.md S5): where codegen emits C++
// against the zomp C ABI, the interpreter executes the same structured Omp*
// statements directly against the runtime's C++ internals — outlined
// functions run as real microtasks on real team threads, worksharing loops
// use the same dispatch engine, barriers are real barriers. This is what the
// ctest suite uses to validate directive *semantics* without invoking a host
// compiler, and what `transpile_and_run`-style examples embed.
//
// Re-entrancy: one Interp may execute on many threads at once (that is the
// point); all mutable interpreter state is per-frame, and module/global
// tables are read-only after construction. Data races between interpreted
// threads on user variables are the user's responsibility, as in OpenMP.
//
// Runtime errors (bounds, division by zero, missing extern) panic — print
// and abort — matching Zig's safety-panic behaviour and keeping teams from
// deadlocking at barriers half-executed regions would otherwise miss.
#pragma once

#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/value.h"
#include "lang/ast.h"

namespace zomp::interp {

struct InterpOptions {
  /// Sink for @print output (tests capture it). Writes are serialised.
  std::ostream* out = nullptr;
};

class Interp {
 public:
  using HostFn = std::function<Value(std::vector<Value>& args)>;
  using Options = InterpOptions;

  /// The module must have passed sema with the OpenMP transform applied.
  explicit Interp(const lang::Module& module, Options options = Options());

  /// Registers a host implementation for an `extern fn`. Every routine-table
  /// row (runtime/abi.h) is pre-registered, bound to its native mz_omp_*
  /// entry point.
  void register_host_fn(const std::string& name, HostFn fn);

  /// Runs `pub fn main`. Returns false if the module has no main.
  bool run_main();

  /// Calls a named (non-outlined) function with by-value arguments.
  Value call_by_name(const std::string& name, std::vector<Value> args);

 private:
  friend class Exec;

  const lang::Module& module_;
  Options options_;
  std::unordered_map<const lang::Symbol*, Cell> globals_;
  std::unordered_map<std::string, HostFn> host_fns_;
  std::mutex print_mutex_;
};

}  // namespace zomp::interp
