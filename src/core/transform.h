// The OpenMP preprocessing transform — the paper's primary contribution,
// reproduced over MiniZig (Figure 1 of the paper):
//
//   1. Directive comments attached by the parser are parsed into Directive
//      objects (directive_parser.h).
//   2. `parallel` (and the parallel half of `parallel for`) regions are
//      *outlined*: the associated block becomes a new module-level function;
//      the region's free variables (capture.h) become its parameters, with
//      the data-sharing clauses choosing pointer vs value capture; the
//      original statement is replaced by a fork of that function. Under
//      default(none), an unlisted free variable is diagnosed at its first
//      use inside the region, with the applicable clause suggested
//      (shared / private / firstprivate / reduction).
//   3. Worksharing loops become OmpWsLoop nodes that the backends lower to
//      the runtime's loop-bounds calls. A `collapse(n)` nest is
//      canonicalized first: the engine checks it is perfectly nested and
//      rectangular, hoists per-dimension lower bound / extent / stride into
//      synthesized const locals, and rewrites the nest into one loop over
//      the linearized space [0, N1*...*Nn) whose nest metadata
//      (lang::CollapseDim) tells the backends how to recompute the original
//      induction variables per logical iteration — so every schedule kind,
//      lastprivate and ordered apply to collapsed loops unchanged.
//      Reductions materialise as a private accumulator plus the team's tree
//      combine (runtime/reduce.h): the rendezvous winner alone folds the
//      combined value into the shared target, no global lock.
//   4. The remaining constructs (single/master/critical/atomic/ordered/task)
//      map to their structured statements.
//
// Pipeline position (core/pipeline.h): this transform is the `omp-lower`
// stage, the first after parsing. It runs before semantic analysis, with
// names only — the same position and the same type-information limitation
// the paper describes (§2), resolved the same way (generic/inferred
// outlined-function parameters). Contract with sema and the backends:
//   * Output is a plain module: outlined functions are ordinary FnDecls
//     (marked is_outlined) whose parameter lists pair 1:1 with the fork /
//     task sites' capture lists.
//   * Every loop is normalised to half-open [lo, hi) step 1 (collapse
//     nests linearized first), so the backends pass step 1 to every
//     worksharing-loop runtime call.
//   * Its output goes to the backends exactly as lowered, once sema has
//     resolved it; nothing folds or rewrites it in between.
#pragma once

#include "lang/ast.h"
#include "lang/source.h"

namespace zomp::core {

struct TransformStats {
  int regions_outlined = 0;
  int ws_loops = 0;
  int tasks_outlined = 0;
  int directives_seen = 0;
};

/// Applies the OpenMP transform in place. Returns false if any directive was
/// malformed or used unsupported combinations (diagnostics explain).
bool apply_openmp(lang::Module& module, lang::Diagnostics& diags,
                  TransformStats* stats = nullptr);

}  // namespace zomp::core
