// MiniZig abstract syntax tree.
//
// One tree serves all phases: the parser builds it (attaching raw `//#omp`
// directive text to statements), the directive engine in src/core/ rewrites
// it (outlining regions into synthesized functions and inserting the
// structured Omp* statements that the backends lower to runtime calls), sema
// resolves and types it, and the two backends (codegen, interp) consume it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lang/source.h"
#include "lang/type.h"

namespace zomp::lang {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

// ---------------------------------------------------------------------------
// Symbols
// ---------------------------------------------------------------------------

/// A resolved variable. Owned by the Module's symbol arena; AST nodes hold
/// non-owning pointers that stay valid for the module's lifetime.
struct Symbol {
  enum class Kind { kLocal, kParam, kGlobal, kLoopVar };

  std::string name;
  Kind kind = Kind::kLocal;
  Type type;
  bool is_const = false;
  /// Shared-capture parameter of an outlined function: the name binds to the
  /// *enclosing scope's storage* (codegen emits a reference parameter, the
  /// interpreter aliases the cell). This is the "pointers to variables passed
  /// to the runtime" of the paper's lowering, made transparent to uses.
  bool indirect = false;
  /// Dense id for backends (unique per module).
  int id = 0;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,            // logical, short-circuit
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
};

enum class UnOp { kNeg, kNot };

/// Compiler builtins (`@name(...)`). The math set matches what the NPB
/// kernels need; conversions follow current Zig spellings.
enum class Builtin {
  kSqrt, kAbs, kExp, kLog, kPow, kMin, kMax, kMod,
  kFloatFromInt, kIntFromFloat,
  kAlloc, kFree,
  kPrint,
};

struct FnDecl;

struct Expr {
  enum class Kind {
    kIntLit,
    kFloatLit,
    kBoolLit,
    kStringLit,
    kUndefined,
    kVarRef,
    kBinary,
    kUnary,
    kCall,
    kBuiltinCall,
    kIndex,    // base[index]
    kLen,      // base.len
    kAddrOf,   // &var
    kDeref,    // ptr.*
  };

  Kind kind;
  SourceLoc loc;
  Type type;  ///< set by sema

  // Literal payloads.
  std::int64_t int_value = 0;
  double float_value = 0.0;
  bool bool_value = false;

  /// Identifier (kVarRef), callee name (kCall), or string payload.
  std::string name;

  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;
  Builtin builtin = Builtin::kSqrt;
  /// Element type argument of @alloc(T, n).
  Type alloc_elem;

  /// Children: binary = {lhs, rhs}; unary/deref/len/addrof = {operand};
  /// index = {base, index}; calls = argument list.
  std::vector<ExprPtr> args;

  /// Resolution results (sema).
  Symbol* symbol = nullptr;       // kVarRef, kAddrOf target
  const FnDecl* callee = nullptr; // kCall

  static ExprPtr make(Kind kind, SourceLoc loc);
};

// ---------------------------------------------------------------------------
// OpenMP structured statements (inserted by the directive engine)
// ---------------------------------------------------------------------------

/// How one captured variable crosses the outlining boundary. The modes mirror
/// the paper's lowering: everything is passed as a parameter of the outlined
/// function; data-sharing clauses pick pointer vs value capture. The engine
/// emits kSharedPtr for every shared capture (types are unknown during
/// preprocessing, exactly as in the paper); sema refines slice-typed shared
/// captures to kSharedSlice and marks scalar ones indirect.
enum class CaptureMode {
  kSharedPtr,      ///< scalar shared(...): address passed, param is indirect
  kSharedSlice,    ///< slice shared: slice header by value (data is shared)
  kValue,          ///< private/firstprivate scalar or slice: by value
  kReductionPtr,   ///< reduction target: address passed + private accumulator
};

/// Reduction operators of the `reduction` clause.
enum class ReduceOp { kAdd, kSub, kMul, kMin, kMax, kBitAnd, kBitOr, kBitXor, kLogAnd, kLogOr };

const char* reduce_op_spelling(ReduceOp op);

struct CaptureArg {
  std::string name;        ///< source-level variable name
  CaptureMode mode = CaptureMode::kSharedPtr;
  ReduceOp reduce_op = ReduceOp::kAdd;  ///< for kReductionPtr
  /// kReductionPtr on an array section `name[0:len]`: len (the slice header
  /// rides by value and the winner folds into its first len elements);
  /// 0 for a scalar reduction variable.
  int section_len = 0;
  Symbol* symbol = nullptr;             ///< enclosing-scope symbol (sema)
};

/// Schedule request recorded on a worksharing loop. The chunk is an
/// expression (evaluated at region entry), matching the clause grammar.
struct ScheduleSpec {
  enum class Kind { kUnspecified, kStatic, kDynamic, kGuided, kAuto, kRuntime };
  Kind kind = Kind::kUnspecified;
  ExprPtr chunk;  // may be null
};

/// One dimension of a `collapse(n)` loop nest after canonicalization
/// (outermost first). The directive engine linearizes a perfectly-nested
/// rectangular nest into a single worksharing loop over [0, N1*N2*...*Nn)
/// and synthesizes, as const locals in the enclosing block, each dimension's
/// lower bound (`lo`), extent (`extent`, clamped at 0) and linearized stride
/// (`stride` = product of inner extents). Backends recompute the original
/// induction variable per logical iteration as
///   iv = lo + (flat / stride) % extent
/// (the `% extent` is redundant for the outermost dimension). The iv is a
/// fresh const binding per iteration, declared by sema in the loop's scope.
struct CollapseDim {
  std::string iv;      ///< source loop variable name
  std::string lo;      ///< synthesized lower-bound local
  std::string extent;  ///< synthesized extent local
  std::string stride;  ///< synthesized stride local
  Symbol* iv_symbol = nullptr;      // sema
  Symbol* lo_symbol = nullptr;      // sema
  Symbol* extent_symbol = nullptr;  // sema
  Symbol* stride_symbol = nullptr;  // sema
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Stmt {
  enum class Kind {
    kBlock,
    kVarDecl,
    kAssign,
    kExprStmt,
    kIf,
    kWhile,
    kForRange,
    kReturn,
    kBreak,
    kContinue,

    // OpenMP structured statements (see DESIGN.md §6). These are the "calls
    // to the OpenMP runtime inserted prior to the compile-time engine" of the
    // paper, in structured form; backends lower them to the zomp ABI.
    kOmpFork,         ///< call an outlined region function on a new team
    kOmpWsLoop,       ///< worksharing distribution of the contained loop
    kOmpBarrier,
    kOmpCritical,
    kOmpSingle,
    kOmpMaster,
    kOmpAtomic,
    kOmpOrdered,
    kOmpReductionInit,     ///< declare+initialise a private accumulator
    kOmpReductionCombine,  ///< combine accumulator into shared target
    kOmpLastprivateWrite,  ///< write local back through pointer on last iter
    kOmpTask,              ///< deferred execution of an outlined task fn
    kOmpTaskwait,
    kOmpTaskgroup,         ///< body; waits for group tasks + descendants
    kOmpTaskloop,          ///< chunked task execution of an outlined loop fn
    kOmpCancel,            ///< `cancel <construct>`: activate cancellation
    kOmpCancellationPoint, ///< `cancellation point <construct>`: check it
  };

  Kind kind;
  SourceLoc loc;

  /// Raw `//#omp` directive text attached by the parser to the statement the
  /// comment precedes. Consumed (and cleared) by the directive engine.
  std::vector<std::pair<std::string, SourceLoc>> pending_directives;

  // kBlock
  std::vector<StmtPtr> stmts;

  // kVarDecl: `name`, optional declared type, init expression (null for
  // `undefined`), constness. Also used by kOmpReductionInit (the private
  // accumulator; `reduce_op` gives the identity).
  std::string name;
  Type declared_type;
  bool has_declared_type = false;
  bool is_const = false;
  ExprPtr init;
  /// Directive-engine decls only: `init` exists to give the declaration a
  /// type (sema has no other source pre-outlining), but backends must NOT
  /// evaluate it — they value-initialize instead. Used for the lastprivate
  /// private copy, whose pre-last value is unspecified by OpenMP: actually
  /// reading the shared variable here races the lastprivate writeback of a
  /// nowait loop.
  bool init_is_type_hint = false;
  Symbol* symbol = nullptr;

  // kAssign: lhs/rhs, with op != kAssignPlain for compound assignment.
  enum class AssignOp { kPlain, kAdd, kSub, kMul, kDiv };
  AssignOp assign_op = AssignOp::kPlain;
  ExprPtr lhs;
  ExprPtr rhs;

  // kExprStmt / kReturn / kIf / kWhile condition carrier.
  ExprPtr expr;

  // kIf
  StmtPtr then_block;
  StmtPtr else_block;  // may be null

  // kWhile: expr = condition, `step` = optional continue statement
  // (`while (c) : (i += 1)`), body below.
  StmtPtr step;
  StmtPtr body;

  // kForRange: `name` = capture, expr = lo, rhs = hi (reusing slots), body.
  // Loop variable is const i64, fresh per iteration (Zig `for (a..b) |i|`).

  // -- OpenMP payloads -------------------------------------------------------

  // kOmpFork / kOmpTask / kOmpTaskloop: outlined callee + captures. For
  // kOmpTaskloop the callee's last two parameters are the synthesized chunk
  // bounds (i64, by value); `expr`/`rhs` reuse the kForRange slots for the
  // full-range lo/hi, evaluated once at the taskloop point.
  std::string callee;
  const FnDecl* callee_decl = nullptr;  // sema
  std::vector<CaptureArg> captures;
  ExprPtr num_threads;  // parallel num_threads clause
  ExprPtr if_clause;    // parallel/task if clause
  /// kOmpFork only: proc_bind clause as the runtime's BindKind /
  /// omp_proc_bind_t value (2 primary, 3 close, 4 spread); -1 when absent.
  /// Kept numeric so lang/ stays free of runtime headers.
  int proc_bind = -1;
  /// kOmpFork only, set by the optimizer's capture-hoist pass: > 0 means
  /// every capture's address is invariant across the enclosing serial loop
  /// nest, so codegen may build the fork's `void*` argument pack once,
  /// outside the loop at serial-loop nesting depth `hoist_depth - 1`
  /// (1 = hoist out of the innermost enclosing loop). 0 = no hoist. The
  /// interpreter ignores the flag (it has no argument pack to reuse).
  int hoist_depth = 0;

  // kOmpTask tasking clauses (see core/directive.h): depend items are
  // lvalue expressions evaluated to addresses at creation time, in the
  // enclosing scope.
  struct OmpDepend {
    int kind = 3;  ///< rt::DepKind values: 1 = in, 2 = out, 3 = inout
    ExprPtr item;
  };
  std::vector<OmpDepend> depends;
  ExprPtr final_clause;
  ExprPtr priority;
  bool untied = false;

  // kOmpTaskloop chunking clauses (mutually exclusive, validated upstream).
  ExprPtr grainsize;
  ExprPtr num_tasks;

  /// kOmpCancel / kOmpCancellationPoint: which construct the cancellation
  /// names, as the runtime ABI's ZOMP_CANCEL_* values (1 parallel, 2 for,
  /// 4 taskgroup). Kept numeric so lang/ stays free of runtime headers.
  int cancel_construct = 0;

  // kOmpWsLoop: body is the kForRange statement to distribute. For
  // collapse(n>1) the body is the canonicalized linearized loop and
  // `collapse` carries the nest metadata (empty for collapse(1)).
  ScheduleSpec schedule;
  std::vector<CollapseDim> collapse;
  bool nowait = false;
  bool ordered = false;
  /// lastprivate entries as {private local, writeback target} name pairs.
  std::vector<std::pair<std::string, std::string>> lastprivate;
  /// Resolved counterparts of `lastprivate` (sema), same order.
  std::vector<std::pair<Symbol*, Symbol*>> lastprivate_syms;

  // kOmpCritical: `name` = critical name ("" = unnamed), body.
  // kOmpSingle: body + nowait. kOmpMaster / kOmpOrdered: body.
  // kOmpAtomic: body must be a single kAssign statement.

  // kOmpReductionInit / kOmpReductionCombine / kOmpLastprivateWrite:
  // `name` = private local, `target` = pointer parameter name.
  std::string target;
  ReduceOp reduce_op = ReduceOp::kAdd;
  Symbol* target_symbol = nullptr;  // sema
  /// kOmpReductionInit / kOmpReductionCombine on an array section
  /// `target[0:len]`: len, else 0. The private `name` is then a const slice
  /// view of a len-element private array filled with the identity, and the
  /// combine folds element-wise into the target slice's first len elements.
  int section_len = 0;

  /// kOmpReductionCombine only: packing (reduce.h). On the FIRST combine of
  /// a construct's consecutive combine run, the number of combines in the
  /// run; 0 on the others. Backends lower every run, a single variable
  /// included, as ONE zomp_reduce rendezvous over a struct payload of the
  /// partials (a section contributes len fields). Set by the directive
  /// engine, which emits each construct's combines adjacently.
  int red_pack = 1;

  static StmtPtr make(Kind kind, SourceLoc loc);
};

// ---------------------------------------------------------------------------
// Declarations / module
// ---------------------------------------------------------------------------

struct Param {
  std::string name;
  Type type;           ///< kInferred on outlined functions until sema
  SourceLoc loc;
  Symbol* symbol = nullptr;
  /// Set by sema for shared/reduction captures (see Symbol::indirect).
  bool indirect = false;
  /// Set by sema when such a capture aliases a const variable.
  bool is_const = false;
};

struct FnDecl {
  std::string name;
  std::vector<Param> params;
  Type return_type = Type::void_type();
  StmtPtr body;  ///< null for extern declarations
  bool is_extern = false;
  bool is_pub = false;
  /// Synthesized by the directive engine (parallel-region or task body).
  bool is_outlined = false;
  SourceLoc loc;
};

struct Module {
  std::string name;
  std::vector<std::unique_ptr<FnDecl>> functions;
  /// Top-level var/const declarations, in source order.
  std::vector<StmtPtr> globals;

  /// Symbol arena: stable addresses for every Symbol in the module.
  std::vector<std::unique_ptr<Symbol>> symbols;

  Symbol* new_symbol(std::string name, Symbol::Kind kind, Type type,
                     bool is_const);

  FnDecl* find_function(const std::string& fn_name);
  const FnDecl* find_function(const std::string& fn_name) const;
};

/// Renders the AST as a stable, diff-friendly S-expression; used by parser
/// and transform golden tests.
std::string dump_ast(const Module& module);
std::string dump_stmt(const Stmt& stmt, int indent = 0);
std::string dump_expr(const Expr& expr);

}  // namespace zomp::lang
