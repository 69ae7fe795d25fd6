// The mzc optimizer: a pass pipeline between the front end and the backends.
//
// The compile pipeline is an ordered list of Pass objects run by PassManager.
// The first two stages are the existing phases recast as passes — `omp-lower`
// (the directive engine, core/transform.h) and `sema` (lang/sema.h) — so the
// whole journey from parsed AST to backend-ready module is one inspectable
// pass list (`mzc --dump-ir=<pass>` prints the module after any stage).
//
// At -O1 two optimization passes follow sema, in this order:
//
//   fold         Directive-operand constant folding. Evaluates compile-time
//                constant expressions feeding `num_threads`, `if`, `schedule`
//                chunks, worksharing bounds, and const initializers (collapse
//                extents are synthesized const locals) down to literal nodes,
//                and propagates const values through by-value captures into
//                the (unique) fork site's outlined body. `if(true)` clauses
//                are deleted; `if(false)` becomes a literal false.
//   dce-hoist    Dead-clause elimination (captures whose name is never
//                referenced in the outlined body are dropped, along with the
//                matching parameter) and loop-invariant capture hoisting
//                (a fork inside a serial loop whose capture addresses are all
//                declared outside the loop gets `hoist_depth` set so codegen
//                builds the void* argument pack once, outside the loop).
//
// Pipeline contract (DESIGN.md "Optimizer pass pipeline"):
//   * Every optimization pass runs on a sema-resolved module and must keep
//     it RE-ANALYZABLE: lang::analyze() is re-run after the optimization
//     passes (`verify`) and re-resolves every symbol by name, so passes may
//     leave Symbol*/FnDecl* fields stale or null but must keep names, scopes
//     and capture/parameter lists consistent.
//   * Metadata invariant: `hoist_depth` counts enclosing serial loops whose
//     scopes declare none of the fork's captured names.
//   * Passes mutate the module in place and return false only on an
//     internal error (a pass bug), never on user-source conditions.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/transform.h"
#include "lang/ast.h"
#include "lang/source.h"

namespace zomp::core {

/// Counters accumulated across the pipeline; surfaced through CompileResult
/// and asserted by the pass golden tests.
struct PassStats {
  TransformStats transform;  ///< filled by the omp-lower stage
  int folded_operands = 0;   ///< fold: expressions replaced / clauses dropped
  int dead_captures = 0;     ///< dce-hoist: captures+params removed
  int hoisted_forks = 0;     ///< dce-hoist: forks marked hoistable
};

class Pass {
 public:
  virtual ~Pass() = default;
  /// Stable name used by --dump-ir and the golden tests.
  virtual std::string name() const = 0;
  /// Transforms `module` in place. Returns false only on an internal error
  /// (reported through `diags`); user-source errors belong to the front-end
  /// stages, which report and stop the pipeline the same way.
  virtual bool run(lang::Module& module, lang::Diagnostics& diags,
                   PassStats& stats) = 0;
};

class PassManager {
 public:
  /// Observer invoked after each pass completes, with the pass name and the
  /// module in its post-pass state (the --dump-ir hook).
  using DumpHook =
      std::function<void(const std::string& pass, const lang::Module& module)>;

  void add(std::unique_ptr<Pass> pass);
  std::vector<std::string> pass_names() const;

  /// Runs every pass in order; stops (returning false) when a pass fails or
  /// reports errors.
  bool run(lang::Module& module, lang::Diagnostics& diags, PassStats& stats,
           const DumpHook& hook = {}) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Stage factories. `omp-lower` and `sema` wrap the existing phases; the rest
// are the -O1 optimization passes described above. `verify` re-runs sema on
// the optimized module (scratch diagnostics; errors are re-reported as
// internal pass bugs) — it is also what re-resolves symbols after the
// optimizer.
std::unique_ptr<Pass> make_omp_lower_pass();
std::unique_ptr<Pass> make_sema_pass();
std::unique_ptr<Pass> make_fold_pass();
std::unique_ptr<Pass> make_dce_hoist_pass();
std::unique_ptr<Pass> make_verify_pass();

/// Assembles the standard pipeline. opt_level 0: omp-lower (when `openmp`),
/// sema. opt_level >= 1: adds fold, dce-hoist, verify.
void build_default_pipeline(PassManager& pm, int opt_level, bool openmp);

}  // namespace zomp::core
