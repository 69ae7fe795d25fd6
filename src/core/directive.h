// Parsed representation of one `//#omp` directive.
//
// This is the directive grammar the paper implements for Zig: the parallel
// construct, the worksharing loop (standalone and combined), the
// synchronisation constructs, and the clause families shared / private /
// firstprivate / reduction / schedule (paper §2), plus the tasking constructs
// implemented here as the documented extension.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lang/ast.h"

namespace zomp::core {

enum class DirectiveKind {
  kParallel,
  kFor,
  kParallelFor,
  kBarrier,
  kCritical,
  kSingle,
  kMaster,
  kAtomic,
  kOrdered,
  kTask,
  kTaskwait,
  kTaskgroup,
  kTaskloop,
  kCancel,
  kCancellationPoint,
};

const char* directive_kind_name(DirectiveKind kind);

/// Does this directive stand alone (no associated statement)?
constexpr bool directive_is_standalone(DirectiveKind kind) {
  return kind == DirectiveKind::kBarrier || kind == DirectiveKind::kTaskwait ||
         kind == DirectiveKind::kCancel ||
         kind == DirectiveKind::kCancellationPoint;
}

/// One reduction(op: list) clause. A list item is a variable name or an
/// array section `name[0:len]` / `name[:len]` (OpenMP's [lower-bound :
/// length] form) with a literal length; `vars` holds the names (a section's
/// base name) and `section_lens` the matching lengths, 0 for a scalar item.
struct ReductionClause {
  lang::ReduceOp op = lang::ReduceOp::kAdd;
  std::vector<std::string> vars;
  std::vector<int> section_lens;
};

/// One depend(kind: list) clause on a task. The list items are lvalue
/// expressions (variable names or slice elements like a[i]); the backends
/// evaluate them to storage addresses at task-creation time.
enum class DependKind { kIn, kOut, kInout };

struct DependClause {
  DependKind kind = DependKind::kInout;
  std::vector<lang::ExprPtr> items;
};

enum class DefaultKind { kUnspecified, kShared, kNone };

/// proc_bind(...) clause argument. Values match zomp::rt::BindKind (and the
/// omp_proc_bind_t ABI constants) so the backends pass them through
/// numerically; kMaster is the deprecated alias and lowers as kPrimary.
enum class ProcBindKind : int {
  kUnspecified = -1,
  kPrimary = 2,
  kClose = 3,
  kSpread = 4,
};

struct Directive {
  DirectiveKind kind = DirectiveKind::kParallel;
  lang::SourceLoc loc;  ///< location of the `//#omp` comment

  // parallel clauses
  lang::ExprPtr num_threads;
  lang::ExprPtr if_clause;
  ProcBindKind proc_bind = ProcBindKind::kUnspecified;
  DefaultKind default_mode = DefaultKind::kUnspecified;
  std::vector<std::string> shared_vars;
  std::vector<std::string> private_vars;
  std::vector<std::string> firstprivate_vars;
  std::vector<ReductionClause> reductions;

  // worksharing clauses
  lang::ScheduleSpec schedule;
  /// collapse(n) depth; 1 when absent (or explicit collapse(1)).
  int collapse = 1;
  bool nowait = false;
  bool ordered = false;
  std::vector<std::string> lastprivate_vars;

  // task clauses
  std::vector<DependClause> depends;
  lang::ExprPtr final_clause;  ///< final(expr): true -> undeferred + included
  lang::ExprPtr priority;      ///< priority(n) scheduling hint
  /// untied is accepted and recorded as a documented no-op (zomp tasks run
  /// to completion on one thread, so every task trivially behaves as tied).
  bool untied = false;

  // taskloop clauses (mutually exclusive; validated)
  lang::ExprPtr grainsize;
  lang::ExprPtr num_tasks;

  // critical
  std::string critical_name;

  /// kCancel / kCancellationPoint: the construct-type-clause, encoded as the
  /// runtime's ZOMP_CANCEL_* values (1 parallel, 2 for, 4 taskgroup) so it
  /// flows numerically through lang::Stmt::cancel_construct to the backends.
  int cancel_construct = 0;
};

}  // namespace zomp::core
