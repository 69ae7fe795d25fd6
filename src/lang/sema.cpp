#include "lang/sema.h"

#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace zomp::lang {

double reduce_identity_f64(ReduceOp op) {
  switch (op) {
    case ReduceOp::kAdd:
    case ReduceOp::kSub: return 0.0;
    case ReduceOp::kMul: return 1.0;
    case ReduceOp::kMin: return std::numeric_limits<double>::infinity();
    case ReduceOp::kMax: return -std::numeric_limits<double>::infinity();
    default: return 0.0;  // bit/logical ops are integer/bool-only
  }
}

std::int64_t reduce_identity_i64(ReduceOp op) {
  switch (op) {
    case ReduceOp::kAdd:
    case ReduceOp::kSub: return 0;
    case ReduceOp::kMul: return 1;
    case ReduceOp::kMin: return std::numeric_limits<std::int64_t>::max();
    case ReduceOp::kMax: return std::numeric_limits<std::int64_t>::min();
    case ReduceOp::kBitAnd: return -1;  // all ones
    case ReduceOp::kBitOr:
    case ReduceOp::kBitXor: return 0;
    case ReduceOp::kLogAnd: return 1;
    case ReduceOp::kLogOr: return 0;
  }
  return 0;
}

namespace {

class Sema {
 public:
  Sema(Module& module, Diagnostics& diags) : module_(module), diags_(diags) {}

  bool run() {
    // Pass 1: register function names (duplicates are errors).
    std::unordered_set<std::string> names;
    for (const auto& fn : module_.functions) {
      if (!names.insert(fn->name).second) {
        diags_.error(fn->loc, "duplicate function '" + fn->name + "'");
      }
    }
    // Pass 2: globals, in order, into the global scope.
    push_scope();
    for (auto& g : module_.globals) {
      check_global(*g);
    }
    // Pass 3: every non-outlined function. Outlined functions are checked at
    // their unique call sites (type inference), extern functions have
    // declared types only.
    for (auto& fn : module_.functions) {
      if (fn->is_outlined || fn->is_extern) continue;
      check_function(*fn);
    }
    // (After an error, an unchecked outlined function is that error's echo:
    // a fork whose captures failed to bind never checks its callee.)
    for (auto& fn : module_.functions) {
      if (fn->is_outlined && !checked_.contains(fn.get()) &&
          !diags_.has_errors()) {
        diags_.warning(fn->loc, "outlined function '" + fn->name +
                                    "' is never forked");
      }
    }
    pop_scope();
    return !diags_.has_errors();
  }

 private:
  // -- Scopes ----------------------------------------------------------------

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }

  Symbol* declare(const std::string& name, Symbol::Kind kind, Type type,
                  bool is_const, SourceLoc loc) {
    auto& scope = scopes_.back();
    if (scope.contains(name)) {
      diags_.error(loc, "redeclaration of '" + name + "' in the same scope");
    }
    Symbol* sym = module_.new_symbol(name, kind, type, is_const);
    scope[name] = sym;
    return sym;
  }

  Symbol* lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (const auto found = it->find(name); found != it->end()) {
        return found->second;
      }
    }
    return nullptr;
  }

  // -- Declarations ------------------------------------------------------------

  void check_global(Stmt& g) {
    if (g.kind != Stmt::Kind::kVarDecl) {
      diags_.error(g.loc, "only var/const declarations allowed at top level");
      return;
    }
    check_var_decl(g, Symbol::Kind::kGlobal);
  }

  void check_function(FnDecl& fn) {
    if (checked_.contains(&fn)) return;
    checked_.insert(&fn);
    current_fn_stack_.push_back(&fn);
    push_scope();
    for (auto& param : fn.params) {
      if (param.type.is_inferred()) {
        diags_.error(param.loc,
                     "parameter '" + param.name + "' of '" + fn.name +
                         "' has no inferred type (outlined function forked "
                         "with mismatched captures?)");
        param.type = Type::invalid();
      }
      // Outlined-function params are mutable: value captures of
      // private/firstprivate variables must accept writes, and indirect
      // (shared) captures must accept writes through the alias — unless
      // the alias is of a const variable.
      param.symbol = declare(param.name, Symbol::Kind::kParam, param.type,
                             /*is_const=*/!fn.is_outlined || param.is_const,
                             param.loc);
      param.symbol->indirect = param.indirect;
    }
    if (fn.body) check_stmt(*fn.body);
    pop_scope();
    current_fn_stack_.pop_back();
  }

  FnDecl* current_fn() {
    return current_fn_stack_.empty() ? nullptr : current_fn_stack_.back();
  }

  // -- Statements ----------------------------------------------------------------

  void check_var_decl(Stmt& stmt, Symbol::Kind kind) {
    Type type = Type::invalid();
    if (stmt.init) {
      const Type init_type = check_expr(*stmt.init);
      if (stmt.has_declared_type) {
        if (!init_type.is_invalid() && init_type != stmt.declared_type) {
          diags_.error(stmt.loc, "cannot initialise '" + stmt.name + "' of type " +
                                     stmt.declared_type.to_string() +
                                     " with value of type " +
                                     init_type.to_string());
        }
        type = stmt.declared_type;
      } else {
        type = init_type;
        if (type == Type::string()) {
          diags_.error(stmt.loc, "string literals may only appear in @print");
          type = Type::invalid();
        }
      }
    } else {
      // `undefined` initialiser; parser guaranteed a declared type.
      type = stmt.has_declared_type ? stmt.declared_type : Type::invalid();
    }
    if (type.is_void()) {
      diags_.error(stmt.loc, "cannot declare variable of type void");
      type = Type::invalid();
    }
    stmt.symbol = declare(stmt.name, kind, type, stmt.is_const, stmt.loc);
  }

  void expect_bool(const Expr& e, const char* what) {
    if (!e.type.is_bool() && !e.type.is_invalid()) {
      diags_.error(e.loc, std::string(what) + " must be bool, found " +
                              e.type.to_string());
    }
  }

  void check_stmt(Stmt& stmt) {
    if (!stmt.pending_directives.empty()) {
      // The directive engine did not run (or missed this statement). These
      // are comments in real Zig, so ignoring them is the faithful serial
      // fallback — but the user should know.
      diags_.warning(stmt.pending_directives.front().second,
                     "OpenMP directive ignored (directive engine not run)");
      stmt.pending_directives.clear();
    }
    switch (stmt.kind) {
      case Stmt::Kind::kBlock: {
        push_scope();
        const Stmt* prev = nullptr;
        for (auto& s : stmt.stmts) {
          // A barrier textually right after `cancel parallel|for` is almost
          // always a bug: the cancelling thread proceeds to the region join
          // without arriving, so this barrier can only complete abandoned.
          // The directive engine nests the statements following a standalone
          // directive in fresh blocks, so unwrap to the first effective
          // statement before comparing.
          const Stmt* eff = s.get();
          while (eff->kind == Stmt::Kind::kBlock && !eff->stmts.empty()) {
            eff = eff->stmts.front().get();
          }
          if (prev != nullptr && prev->kind == Stmt::Kind::kOmpCancel &&
              prev->cancel_construct != 4 &&
              eff->kind == Stmt::Kind::kOmpBarrier) {
            diags_.warning(s->loc,
                           "barrier immediately after 'cancel': a cancelling "
                           "thread never arrives here, so this barrier cannot "
                           "synchronise the team; rely on the region join "
                           "instead");
          }
          check_stmt(*s);
          prev = s.get();
        }
        pop_scope();
        break;
      }
      case Stmt::Kind::kVarDecl:
        check_var_decl(stmt, Symbol::Kind::kLocal);
        break;
      case Stmt::Kind::kAssign: {
        const Type lhs = check_lvalue(*stmt.lhs);
        const Type rhs = check_expr(*stmt.rhs);
        if (lhs.is_invalid() || rhs.is_invalid()) break;
        if (stmt.assign_op != Stmt::AssignOp::kPlain) {
          if (!lhs.is_numeric()) {
            diags_.error(stmt.loc, "compound assignment needs numeric target");
            break;
          }
        }
        if (lhs != rhs) {
          diags_.error(stmt.loc, "cannot assign " + rhs.to_string() + " to " +
                                     lhs.to_string());
        }
        break;
      }
      case Stmt::Kind::kExprStmt: {
        const Type t = check_expr(*stmt.expr);
        if (stmt.expr->kind != Expr::Kind::kCall &&
            stmt.expr->kind != Expr::Kind::kBuiltinCall) {
          diags_.warning(stmt.loc, "expression statement has no effect");
        }
        (void)t;
        break;
      }
      case Stmt::Kind::kIf:
        check_expr(*stmt.expr);
        expect_bool(*stmt.expr, "if condition");
        check_stmt(*stmt.then_block);
        if (stmt.else_block) check_stmt(*stmt.else_block);
        break;
      case Stmt::Kind::kWhile:
        check_expr(*stmt.expr);
        expect_bool(*stmt.expr, "while condition");
        ++loop_depth_;
        if (stmt.step) check_stmt(*stmt.step);
        check_stmt(*stmt.body);
        --loop_depth_;
        break;
      case Stmt::Kind::kForRange: {
        const Type lo = check_expr(*stmt.expr);
        const Type hi = check_expr(*stmt.rhs);
        if (!lo.is_invalid() && !lo.is_i64()) {
          diags_.error(stmt.expr->loc, "range bounds must be i64");
        }
        if (!hi.is_invalid() && !hi.is_i64()) {
          diags_.error(stmt.rhs->loc, "range bounds must be i64");
        }
        push_scope();
        stmt.symbol = declare(stmt.name, Symbol::Kind::kLoopVar, Type::i64(),
                              /*is_const=*/true, stmt.loc);
        ++loop_depth_;
        check_stmt(*stmt.body);
        --loop_depth_;
        pop_scope();
        break;
      }
      case Stmt::Kind::kReturn: {
        FnDecl* fn = current_fn();
        const Type want = fn ? fn->return_type : Type::void_type();
        if (stmt.expr) {
          const Type got = check_expr(*stmt.expr);
          if (!got.is_invalid() && got != want) {
            diags_.error(stmt.loc, "return type mismatch: function returns " +
                                       want.to_string() + ", value is " +
                                       got.to_string());
          }
        } else if (!want.is_void()) {
          diags_.error(stmt.loc, "non-void function must return a value");
        }
        break;
      }
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        if (loop_depth_ == 0) {
          diags_.error(stmt.loc, "break/continue outside of a loop");
        }
        break;

      // -- OpenMP structured statements ------------------------------------

      case Stmt::Kind::kOmpFork: check_fork(stmt, /*is_task=*/false); break;
      case Stmt::Kind::kOmpTask: check_fork(stmt, /*is_task=*/true); break;
      case Stmt::Kind::kOmpTaskloop: check_taskloop(stmt); break;
      case Stmt::Kind::kOmpWsLoop: check_ws_loop(stmt); break;
      case Stmt::Kind::kOmpBarrier:
      case Stmt::Kind::kOmpTaskwait:
        break;
      case Stmt::Kind::kOmpCancel:
      case Stmt::Kind::kOmpCancellationPoint:
        check_cancel(stmt);
        break;
      case Stmt::Kind::kOmpCritical:
      case Stmt::Kind::kOmpMaster:
      case Stmt::Kind::kOmpOrdered:
      case Stmt::Kind::kOmpSingle:
        omp_ctx_.push_back(OmpCtx::kOther);
        check_stmt(*stmt.body);
        omp_ctx_.pop_back();
        break;
      case Stmt::Kind::kOmpTaskgroup:
        omp_ctx_.push_back(OmpCtx::kTaskgroup);
        check_stmt(*stmt.body);
        omp_ctx_.pop_back();
        break;
      case Stmt::Kind::kOmpAtomic: {
        if (stmt.body->kind != Stmt::Kind::kAssign ||
            stmt.body->assign_op == Stmt::AssignOp::kPlain) {
          diags_.error(stmt.loc,
                       "atomic requires a compound assignment statement "
                       "(x += expr and friends)");
          break;
        }
        check_stmt(*stmt.body);
        break;
      }
      case Stmt::Kind::kOmpReductionInit: {
        // Declares the private accumulator; its type comes from the variable
        // that carries the shared reduction target (an indirect parameter for
        // parallel-level reductions, an ordinary local for `for` reductions).
        // A section's accumulator is a const slice view of a private array.
        Symbol* target = lookup(stmt.target);
        Type type = Type::invalid();
        if (target == nullptr) {
          diags_.error(stmt.loc, "unknown reduction target '" + stmt.target + "'");
        } else if (stmt.section_len > 0) {
          if (check_section(stmt.loc, stmt.target, stmt.reduce_op,
                            stmt.section_len, target->type)) {
            type = target->type;
          }
        } else {
          type = target->type;
          if (!type.is_numeric() &&
              !(type.is_bool() && is_logical(stmt.reduce_op))) {
            diags_.error(stmt.loc, "reduction over unsupported type " +
                                       type.to_string());
            type = Type::invalid();
          }
        }
        stmt.target_symbol = target;
        stmt.symbol = declare(stmt.name, Symbol::Kind::kLocal, type,
                              /*is_const=*/stmt.section_len > 0, stmt.loc);
        break;
      }
      case Stmt::Kind::kOmpReductionCombine:
      case Stmt::Kind::kOmpLastprivateWrite: {
        Symbol* local = lookup(stmt.name);
        Symbol* target = lookup(stmt.target);
        if (local == nullptr) {
          diags_.error(stmt.loc, "unknown local '" + stmt.name + "'");
        }
        if (target == nullptr) {
          diags_.error(stmt.loc, "unknown combine/writeback target '" +
                                     stmt.target + "'");
        } else if (target->is_const && stmt.section_len == 0) {
          // (A section's combine stores elements, which a const slice allows.)
          diags_.error(stmt.loc, "combine/writeback target '" + stmt.target +
                                     "' is const");
        } else if (local != nullptr && !local->type.is_invalid() &&
                   target->type != local->type) {
          diags_.error(stmt.loc, "type mismatch between '" + stmt.name +
                                     "' and '" + stmt.target + "'");
        }
        stmt.symbol = local;
        stmt.target_symbol = target;
        break;
      }
    }
  }

  /// The closely-nested construct-kind rule for `cancel` / `cancellation
  /// point`: the construct-type operand must name the *innermost* enclosing
  /// OpenMP construct (OpenMP 5.2 §12.5.1). An empty stack means the
  /// construct is orphaned — binding is dynamic, so the runtime resolves it
  /// (serial teams make every construct a no-op anyway).
  void check_cancel(Stmt& stmt) {
    const char* name = stmt.kind == Stmt::Kind::kOmpCancel
                           ? "cancel"
                           : "cancellation point";
    if (omp_ctx_.empty()) return;
    const OmpCtx inner = omp_ctx_.back();
    auto mismatch = [&](const char* construct, const char* need) {
      diags_.error(stmt.loc, std::string("'") + name + " " + construct +
                                 "' must be closely nested inside " + need +
                                 " (another construct intervenes)");
    };
    switch (stmt.cancel_construct) {
      case 1:  // parallel
        if (inner != OmpCtx::kParallel) mismatch("parallel", "a parallel region");
        break;
      case 2:  // for
        if (inner != OmpCtx::kWsLoop) {
          mismatch("for", "a worksharing loop");
        }
        break;
      case 4:  // taskgroup
        if (inner != OmpCtx::kTask) {
          mismatch("taskgroup", "a task (the cancel applies to the "
                                "innermost enclosing taskgroup)");
        }
        break;
      default:
        diags_.error(stmt.loc, std::string("'") + name +
                                   "' is missing its construct operand");
        break;
    }
  }

  void check_fork(Stmt& stmt, bool is_task) {
    FnDecl* callee = module_.find_function(stmt.callee);
    if (callee == nullptr || !callee->is_outlined) {
      diags_.error(stmt.loc, "fork target '" + stmt.callee +
                                 "' is not an outlined function");
      return;
    }
    stmt.callee_decl = callee;
    if (stmt.num_threads) {
      const Type t = check_expr(*stmt.num_threads);
      if (!t.is_invalid() && !t.is_i64()) {
        diags_.error(stmt.num_threads->loc, "num_threads must be i64");
      }
    }
    if (stmt.if_clause) {
      const Type t = check_expr(*stmt.if_clause);
      if (!t.is_invalid() && !t.is_bool()) {
        diags_.error(stmt.if_clause->loc, "if clause must be bool");
      }
    }
    if (is_task) check_task_clauses(stmt);
    if (callee->params.size() != stmt.captures.size()) {
      diags_.error(stmt.loc, "outlined function capture count mismatch");
      return;
    }
    // Resolve captures in the *enclosing* scope and bind the callee's
    // parameter types monomorphically (the paper's generics trick): the
    // engine outlined with no type information; the unique fork site now
    // supplies the types.
    bool ok = true;
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      if (!bind_capture(stmt, *callee, i, is_task)) ok = false;
    }
    if (ok) {
      omp_ctx_.push_back(is_task ? OmpCtx::kTask : OmpCtx::kParallel);
      check_function(*callee);
      omp_ctx_.pop_back();
    }
  }

  /// The tasking clause expressions of a task node, typed in the enclosing
  /// scope. Depend items were already shape-checked by the directive parser
  /// (variable or slice element); here they resolve and type like any
  /// expression — their *addresses* are what the backends hand the runtime.
  void check_task_clauses(Stmt& stmt) {
    for (auto& dep : stmt.depends) {
      check_expr(*dep.item);
    }
    if (stmt.final_clause) {
      const Type t = check_expr(*stmt.final_clause);
      if (!t.is_invalid() && !t.is_bool()) {
        diags_.error(stmt.final_clause->loc, "final clause must be bool");
      }
    }
    if (stmt.priority) {
      const Type t = check_expr(*stmt.priority);
      if (!t.is_invalid() && !t.is_i64()) {
        diags_.error(stmt.priority->loc, "priority must be i64");
      }
    }
  }

  /// `taskloop` node: like a task fork, except the callee's last two
  /// parameters are the synthesized chunk bounds (typed i64 here, by value)
  /// and the node carries the full-range bounds plus grainsize/num_tasks.
  void check_taskloop(Stmt& stmt) {
    FnDecl* callee = module_.find_function(stmt.callee);
    if (callee == nullptr || !callee->is_outlined) {
      diags_.error(stmt.loc, "taskloop target '" + stmt.callee +
                                 "' is not an outlined function");
      return;
    }
    stmt.callee_decl = callee;
    for (Expr* bound : {stmt.expr.get(), stmt.rhs.get()}) {
      const Type t = check_expr(*bound);
      if (!t.is_invalid() && !t.is_i64()) {
        diags_.error(bound->loc, "taskloop range bounds must be i64");
      }
    }
    for (Expr* clause : {stmt.grainsize.get(), stmt.num_tasks.get()}) {
      if (clause == nullptr) continue;
      const Type t = check_expr(*clause);
      if (!t.is_invalid() && !t.is_i64()) {
        diags_.error(clause->loc, "grainsize/num_tasks must be i64");
      }
    }
    if (callee->params.size() != stmt.captures.size() + 2) {
      diags_.error(stmt.loc, "outlined taskloop capture count mismatch");
      return;
    }
    bool ok = true;
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      if (!bind_capture(stmt, *callee, i, /*is_task=*/true)) ok = false;
    }
    for (std::size_t i = stmt.captures.size(); i < callee->params.size(); ++i) {
      Param& p = callee->params[i];
      if (p.type.is_inferred()) {
        p.type = Type::i64();
        p.indirect = false;
      }
    }
    if (ok) {
      omp_ctx_.push_back(OmpCtx::kTask);  // chunk tasks are task regions
      check_function(*callee);
      omp_ctx_.pop_back();
    }
  }

  static bool is_logical(ReduceOp op) {
    return op == ReduceOp::kLogAnd || op == ReduceOp::kLogOr;
  }

  /// An array-section reduction item `base[0:len]` needs a slice base whose
  /// elements the operator can combine (bool elements only under 'and' /
  /// 'or'); diagnoses and returns false otherwise.
  bool check_section(SourceLoc loc, const std::string& base, ReduceOp op,
                     int len, const Type& type) {
    const std::string clause = std::string("reduction(") +
                               reduce_op_spelling(op) + ": " + base + "[0:" +
                               std::to_string(len) + "])";
    if (!type.is_slice()) {
      diags_.error(loc, clause + ": the section base '" + base +
                            "' must be a slice captured from the enclosing "
                            "scope, not " + type.to_string());
      return false;
    }
    if (type.element().is_bool() && !is_logical(op)) {
      diags_.error(loc, clause + ": a bool section reduces only with 'and' "
                                 "or 'or'");
      return false;
    }
    return true;
  }

  /// Resolves capture #i in the enclosing scope and binds the callee's
  /// parameter type monomorphically. Returns false (with diagnostics) when
  /// the capture cannot be typed.
  bool bind_capture(Stmt& stmt, FnDecl& callee, std::size_t i, bool is_task) {
    CaptureArg& cap = stmt.captures[i];
    Symbol* sym = lookup(cap.name);
    if (sym == nullptr) {
      diags_.error(stmt.loc, "captured variable '" + cap.name +
                                 "' not found in enclosing scope");
      return false;
    }
    cap.symbol = sym;
    Type param_type = Type::invalid();
    bool indirect = false;
    bool ok = true;
    switch (cap.mode) {
      case CaptureMode::kSharedPtr:
      case CaptureMode::kSharedSlice:
        if (sym->type.is_slice()) {
          // Slice headers capture by value; the payload is shared storage.
          cap.mode = CaptureMode::kSharedSlice;
          param_type = sym->type;
        } else if (sym->type.is_scalar() && !sym->type.is_void()) {
          cap.mode = CaptureMode::kSharedPtr;
          param_type = sym->type;
          indirect = true;
        } else if (sym->type.is_pointer()) {
          // A shared pointer variable: share the pointer itself.
          cap.mode = CaptureMode::kSharedSlice;
          param_type = sym->type;
        } else {
          diags_.error(stmt.loc, "cannot share '" + cap.name + "' of type " +
                                     sym->type.to_string());
          ok = false;
        }
        break;
      case CaptureMode::kValue:
        if (sym->type.is_void() || sym->type.is_invalid()) {
          diags_.error(stmt.loc, "cannot capture '" + cap.name + "' by value");
          ok = false;
        } else {
          param_type = sym->type;
        }
        break;
      case CaptureMode::kReductionPtr:
        if (cap.section_len > 0) {
          // The slice header rides by value; the winner folds into its data.
          ok = check_section(stmt.loc, cap.name, cap.reduce_op,
                             cap.section_len, sym->type);
          if (ok) param_type = sym->type;
        } else if (!sym->type.is_numeric()) {
          diags_.error(stmt.loc,
                       "reduction variable '" + cap.name + "' must be numeric");
          ok = false;
        } else {
          param_type = sym->type;
          indirect = true;
        }
        break;
    }
    if (is_task && cap.mode == CaptureMode::kReductionPtr) {
      diags_.error(stmt.loc, "task does not support reduction captures");
      ok = false;
    }
    // A const variable stays const behind an indirect capture. A renamed
    // one (a reduction's `a__red`, a writeback's `a__orig`) exists only to
    // be written, so it is rejected here under the name as written; a plain
    // shared `a` only where the region assigns it.
    const bool const_alias = indirect && sym->is_const;
    if (const_alias && callee.params[i].name != cap.name) {
      diags_.error(stmt.loc, "cannot assign to const '" + cap.name + "'");
      ok = false;
    }
    if (param_type.is_invalid()) {
      ok = false;
    } else if (callee.params[i].type.is_inferred()) {
      callee.params[i].type = param_type;
      callee.params[i].indirect = indirect;
      callee.params[i].is_const = const_alias;
    } else if (callee.params[i].type != param_type ||
               callee.params[i].indirect != indirect) {
      diags_.error(stmt.loc,
                   "outlined function '" + callee.name +
                       "' forked twice with incompatible capture types");
      ok = false;
    }
    return ok;
  }

  void check_ws_loop(Stmt& stmt) {
    if (stmt.schedule.chunk) {
      const Type t = check_expr(*stmt.schedule.chunk);
      if (!t.is_invalid() && !t.is_i64()) {
        diags_.error(stmt.schedule.chunk->loc, "schedule chunk must be i64");
      }
    }
    if (stmt.body->kind != Stmt::Kind::kForRange) {
      diags_.error(stmt.loc,
                   "worksharing directive must be followed by a for-range "
                   "loop in canonical form");
      return;
    }
    // Note: user-facing ordered+nowait is rejected by the directive parser;
    // the *internal* nowait of the combined parallel-for lowering is fine
    // because the region's join barrier serialises construct instances.
    omp_ctx_.push_back(OmpCtx::kWsLoop);
    if (!stmt.collapse.empty()) {
      check_collapsed_body(stmt);
    } else {
      check_stmt(*stmt.body);
    }
    omp_ctx_.pop_back();
    stmt.lastprivate_syms.clear();
    for (const auto& [local, target] : stmt.lastprivate) {
      Symbol* l = lookup(local);
      if (l == nullptr) {
        diags_.error(stmt.loc, "lastprivate local '" + local + "' not found");
      }
      Symbol* t = lookup(target);
      if (t == nullptr) {
        diags_.error(stmt.loc, "lastprivate target '" + target + "' not found");
      } else if (t->is_const) {
        diags_.error(stmt.loc, "lastprivate target '" + target + "' is const");
      }
      stmt.lastprivate_syms.emplace_back(l, t);
    }
  }

  /// Canonicalized collapse(n) loop: the body is the linearized kForRange,
  /// and the original induction variables — recomputed by the backends per
  /// logical iteration from the collapse metadata — must be declared in the
  /// loop's scope so the body's references resolve. The synthesized
  /// lo/extent/stride locals were emitted by the directive engine in the
  /// enclosing block, already checked in statement order.
  void check_collapsed_body(Stmt& stmt) {
    Stmt& loop = *stmt.body;
    const Type lo = check_expr(*loop.expr);
    const Type hi = check_expr(*loop.rhs);
    if (!lo.is_invalid() && !lo.is_i64()) {
      diags_.error(loop.expr->loc, "range bounds must be i64");
    }
    if (!hi.is_invalid() && !hi.is_i64()) {
      diags_.error(loop.rhs->loc, "range bounds must be i64");
    }
    for (auto& dim : stmt.collapse) {
      dim.lo_symbol = lookup(dim.lo);
      dim.extent_symbol = lookup(dim.extent);
      dim.stride_symbol = lookup(dim.stride);
      if (dim.lo_symbol == nullptr || dim.extent_symbol == nullptr ||
          dim.stride_symbol == nullptr) {
        diags_.error(stmt.loc,
                     "collapse bounds for loop variable '" + dim.iv +
                         "' are not in scope (directive-engine bug)");
      }
    }
    push_scope();
    loop.symbol = declare(loop.name, Symbol::Kind::kLoopVar, Type::i64(),
                          /*is_const=*/true, loop.loc);
    for (auto& dim : stmt.collapse) {
      dim.iv_symbol = declare(dim.iv, Symbol::Kind::kLoopVar, Type::i64(),
                              /*is_const=*/true, loop.loc);
    }
    ++loop_depth_;
    check_stmt(*loop.body);
    --loop_depth_;
    pop_scope();
  }

  // -- Expressions -------------------------------------------------------------

  /// Checks `e` as an assignment target and returns its type.
  Type check_lvalue(Expr& e) {
    const Type t = check_expr(e);
    switch (e.kind) {
      case Expr::Kind::kVarRef:
        if (e.symbol != nullptr && e.symbol->is_const) {
          diags_.error(e.loc, "cannot assign to const '" + e.name + "'");
        }
        return t;
      case Expr::Kind::kIndex:
      case Expr::Kind::kDeref:
        return t;
      default:
        diags_.error(e.loc, "expression is not assignable");
        return Type::invalid();
    }
  }

  Type check_expr(Expr& e) {
    const Type t = check_expr_impl(e);
    e.type = t;
    return t;
  }

  Type check_expr_impl(Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: return Type::i64();
      case Expr::Kind::kFloatLit: return Type::f64();
      case Expr::Kind::kBoolLit: return Type::boolean();
      case Expr::Kind::kStringLit: return Type::string();
      case Expr::Kind::kUndefined: return Type::invalid();
      case Expr::Kind::kVarRef: {
        Symbol* sym = lookup(e.name);
        if (sym == nullptr) {
          diags_.error(e.loc, "use of undeclared identifier '" + e.name + "'");
          return Type::invalid();
        }
        e.symbol = sym;
        return sym->type;
      }
      case Expr::Kind::kBinary: return check_binary(e);
      case Expr::Kind::kUnary: {
        const Type t = check_expr(*e.args[0]);
        if (t.is_invalid()) return t;
        if (e.un_op == UnOp::kNeg) {
          if (!t.is_numeric()) {
            diags_.error(e.loc, "negation needs a numeric operand");
            return Type::invalid();
          }
          return t;
        }
        if (!t.is_bool()) {
          diags_.error(e.loc, "'!' needs a bool operand");
          return Type::invalid();
        }
        return Type::boolean();
      }
      case Expr::Kind::kCall: return check_call(e);
      case Expr::Kind::kBuiltinCall: return check_builtin(e);
      case Expr::Kind::kIndex: {
        const Type base = check_expr(*e.args[0]);
        const Type index = check_expr(*e.args[1]);
        if (!base.is_invalid() && !base.is_slice()) {
          diags_.error(e.loc, "indexing requires a slice, found " +
                                  base.to_string());
          return Type::invalid();
        }
        if (!index.is_invalid() && !index.is_i64()) {
          diags_.error(e.args[1]->loc, "index must be i64");
        }
        return base.is_slice() ? base.element() : Type::invalid();
      }
      case Expr::Kind::kLen: {
        const Type base = check_expr(*e.args[0]);
        if (!base.is_invalid() && !base.is_slice()) {
          diags_.error(e.loc, "'.len' requires a slice");
          return Type::invalid();
        }
        return Type::i64();
      }
      case Expr::Kind::kAddrOf: {
        Expr& target = *e.args[0];
        const Type t = check_expr(target);
        if (target.kind == Expr::Kind::kVarRef) {
          e.symbol = target.symbol;
        } else if (target.kind != Expr::Kind::kIndex) {
          diags_.error(e.loc, "'&' requires a variable or slice element");
          return Type::invalid();
        }
        if (t.is_invalid()) return t;
        if (!t.is_scalar() || t.is_void()) {
          diags_.error(e.loc, "cannot take the address of a " + t.to_string());
          return Type::invalid();
        }
        return Type::pointer_to(t.scalar());
      }
      case Expr::Kind::kDeref: {
        const Type t = check_expr(*e.args[0]);
        if (t.is_invalid()) return t;
        if (!t.is_pointer()) {
          diags_.error(e.loc, "'.*' requires a pointer, found " + t.to_string());
          return Type::invalid();
        }
        return t.element();
      }
    }
    return Type::invalid();
  }

  Type check_binary(Expr& e) {
    const Type lhs = check_expr(*e.args[0]);
    const Type rhs = check_expr(*e.args[1]);
    if (lhs.is_invalid() || rhs.is_invalid()) return Type::invalid();
    switch (e.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
        if (!lhs.is_numeric() || lhs != rhs) {
          diags_.error(e.loc, "arithmetic needs matching numeric operands (" +
                                  lhs.to_string() + " vs " + rhs.to_string() +
                                  "); use @floatFromInt/@intFromFloat");
          return Type::invalid();
        }
        return lhs;
      case BinOp::kRem:
      case BinOp::kBitAnd:
      case BinOp::kBitOr:
      case BinOp::kBitXor:
      case BinOp::kShl:
      case BinOp::kShr:
        if (!lhs.is_i64() || !rhs.is_i64()) {
          diags_.error(e.loc, "integer operator needs i64 operands");
          return Type::invalid();
        }
        return Type::i64();
      case BinOp::kEq:
      case BinOp::kNe:
        if (lhs != rhs || (!lhs.is_numeric() && !lhs.is_bool())) {
          diags_.error(e.loc, "equality needs matching scalar operands");
          return Type::invalid();
        }
        return Type::boolean();
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        if (lhs != rhs || !lhs.is_numeric()) {
          diags_.error(e.loc, "comparison needs matching numeric operands");
          return Type::invalid();
        }
        return Type::boolean();
      case BinOp::kAnd:
      case BinOp::kOr:
        if (!lhs.is_bool() || !rhs.is_bool()) {
          diags_.error(e.loc, "'and'/'or' need bool operands");
          return Type::invalid();
        }
        return Type::boolean();
    }
    return Type::invalid();
  }

  Type check_call(Expr& e) {
    FnDecl* callee = module_.find_function(e.name);
    if (callee == nullptr) {
      diags_.error(e.loc, "call to unknown function '" + e.name + "'");
      for (auto& a : e.args) check_expr(*a);
      return Type::invalid();
    }
    if (callee->is_outlined) {
      diags_.error(e.loc, "outlined functions may only be forked");
      return Type::invalid();
    }
    e.callee = callee;
    if (e.args.size() != callee->params.size()) {
      diags_.error(e.loc, "'" + e.name + "' expects " +
                              std::to_string(callee->params.size()) +
                              " arguments, got " +
                              std::to_string(e.args.size()));
    }
    const std::size_t n = std::min(e.args.size(), callee->params.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Type got = check_expr(*e.args[i]);
      const Type want = callee->params[i].type;
      if (!got.is_invalid() && got != want) {
        diags_.error(e.args[i]->loc,
                     "argument " + std::to_string(i + 1) + " of '" + e.name +
                         "': expected " + want.to_string() + ", got " +
                         got.to_string());
      }
    }
    for (std::size_t i = n; i < e.args.size(); ++i) check_expr(*e.args[i]);
    return callee->return_type;
  }

  Type check_builtin(Expr& e) {
    auto arity = [&](std::size_t want) {
      if (e.args.size() != want) {
        diags_.error(e.loc, "builtin expects " + std::to_string(want) +
                                " argument(s), got " +
                                std::to_string(e.args.size()));
        return false;
      }
      return true;
    };
    switch (e.builtin) {
      case Builtin::kSqrt:
      case Builtin::kExp:
      case Builtin::kLog: {
        if (!arity(1)) return Type::invalid();
        const Type t = check_expr(*e.args[0]);
        if (!t.is_invalid() && !t.is_f64()) {
          diags_.error(e.loc, "math builtin needs an f64 argument");
        }
        return Type::f64();
      }
      case Builtin::kAbs: {
        if (!arity(1)) return Type::invalid();
        const Type t = check_expr(*e.args[0]);
        if (!t.is_invalid() && !t.is_numeric()) {
          diags_.error(e.loc, "@abs needs a numeric argument");
          return Type::invalid();
        }
        return t;
      }
      case Builtin::kPow: {
        if (!arity(2)) return Type::invalid();
        for (auto& a : e.args) {
          const Type t = check_expr(*a);
          if (!t.is_invalid() && !t.is_f64()) {
            diags_.error(a->loc, "@pow needs f64 arguments");
          }
        }
        return Type::f64();
      }
      case Builtin::kMin:
      case Builtin::kMax: {
        if (!arity(2)) return Type::invalid();
        const Type a = check_expr(*e.args[0]);
        const Type b = check_expr(*e.args[1]);
        if (a.is_invalid() || b.is_invalid()) return Type::invalid();
        if (a != b || !a.is_numeric()) {
          diags_.error(e.loc, "@min/@max need matching numeric arguments");
          return Type::invalid();
        }
        return a;
      }
      case Builtin::kMod: {
        if (!arity(2)) return Type::invalid();
        for (auto& a : e.args) {
          const Type t = check_expr(*a);
          if (!t.is_invalid() && !t.is_i64()) {
            diags_.error(a->loc, "@mod needs i64 arguments");
          }
        }
        return Type::i64();
      }
      case Builtin::kFloatFromInt: {
        if (!arity(1)) return Type::invalid();
        const Type t = check_expr(*e.args[0]);
        if (!t.is_invalid() && !t.is_i64()) {
          diags_.error(e.loc, "@floatFromInt needs an i64 argument");
        }
        return Type::f64();
      }
      case Builtin::kIntFromFloat: {
        if (!arity(1)) return Type::invalid();
        const Type t = check_expr(*e.args[0]);
        if (!t.is_invalid() && !t.is_f64()) {
          diags_.error(e.loc, "@intFromFloat needs an f64 argument");
        }
        return Type::i64();
      }
      case Builtin::kAlloc: {
        if (!arity(1)) return Type::invalid();
        const Type n = check_expr(*e.args[0]);
        if (!n.is_invalid() && !n.is_i64()) {
          diags_.error(e.loc, "@alloc length must be i64");
        }
        if (!e.alloc_elem.is_scalar() || e.alloc_elem.is_void()) {
          diags_.error(e.loc, "@alloc element type must be a scalar");
          return Type::invalid();
        }
        return Type::slice_of(e.alloc_elem.scalar());
      }
      case Builtin::kFree: {
        if (!arity(1)) return Type::invalid();
        const Type t = check_expr(*e.args[0]);
        if (!t.is_invalid() && !t.is_slice()) {
          diags_.error(e.loc, "@free needs a slice");
        }
        return Type::void_type();
      }
      case Builtin::kPrint: {
        for (auto& a : e.args) {
          const Type t = check_expr(*a);
          if (!t.is_invalid() && !t.is_scalar() && t != Type::string()) {
            diags_.error(a->loc, "@print accepts scalars and string literals");
          }
        }
        return Type::void_type();
      }
    }
    return Type::invalid();
  }

  /// The statically-known OpenMP construct context, for the closely-nested
  /// `cancel` checks. kOther covers the constructs cancel can never name
  /// (critical/single/master/ordered) but which still break close nesting.
  enum class OmpCtx { kParallel, kWsLoop, kTask, kTaskgroup, kOther };

  Module& module_;
  Diagnostics& diags_;
  std::vector<std::unordered_map<std::string, Symbol*>> scopes_;
  std::vector<FnDecl*> current_fn_stack_;
  std::unordered_set<const FnDecl*> checked_;
  std::vector<OmpCtx> omp_ctx_;
  int loop_depth_ = 0;
};

}  // namespace

bool analyze(Module& module, Diagnostics& diags) {
  Sema sema(module, diags);
  return sema.run();
}

}  // namespace zomp::lang
