#include "core/transform.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/capture.h"
#include "core/directive_parser.h"
#include "lang/clone.h"

namespace zomp::core {

using lang::CaptureArg;
using lang::CaptureMode;
using lang::Expr;
using lang::ExprPtr;
using lang::FnDecl;
using lang::Module;
using lang::ReduceOp;
using lang::Stmt;
using lang::StmtPtr;

namespace {

/// Renames every free use of `from` to `to` inside a subtree, respecting
/// shadowing (a scope that declares `from` keeps its own meaning). Used to
/// point loop bodies at the private reduction/lastprivate copies.
class Renamer {
 public:
  Renamer(std::string from, std::string to)
      : from_(std::move(from)), to_(std::move(to)) {}

  void rename(Stmt& stmt) {
    if (shadowed_) return;
    switch (stmt.kind) {
      case Stmt::Kind::kBlock: {
        const bool saved = shadowed_;
        for (auto& s : stmt.stmts) {
          rename(*s);
          if (s->kind == Stmt::Kind::kVarDecl && s->name == from_) {
            shadowed_ = true;  // later statements in this block see the decl
          }
        }
        shadowed_ = saved;
        break;
      }
      case Stmt::Kind::kVarDecl:
        if (stmt.init) rename(*stmt.init);
        break;
      case Stmt::Kind::kAssign:
        rename(*stmt.lhs);
        rename(*stmt.rhs);
        break;
      case Stmt::Kind::kExprStmt:
        rename(*stmt.expr);
        break;
      case Stmt::Kind::kIf:
        rename(*stmt.expr);
        rename(*stmt.then_block);
        if (stmt.else_block) rename(*stmt.else_block);
        break;
      case Stmt::Kind::kWhile:
        rename(*stmt.expr);
        if (stmt.step) rename(*stmt.step);
        rename(*stmt.body);
        break;
      case Stmt::Kind::kForRange: {
        rename(*stmt.expr);
        rename(*stmt.rhs);
        if (stmt.name != from_) rename(*stmt.body);
        break;
      }
      case Stmt::Kind::kReturn:
        if (stmt.expr) rename(*stmt.expr);
        break;
      case Stmt::Kind::kOmpFork:
      case Stmt::Kind::kOmpTask:
      case Stmt::Kind::kOmpTaskloop:
        for (auto& cap : stmt.captures) {
          if (cap.name == from_) cap.name = to_;
        }
        if (stmt.num_threads) rename(*stmt.num_threads);
        if (stmt.if_clause) rename(*stmt.if_clause);
        // Tasking clause expressions are evaluated in the enclosing scope.
        for (auto& dep : stmt.depends) rename(*dep.item);
        if (stmt.final_clause) rename(*stmt.final_clause);
        if (stmt.priority) rename(*stmt.priority);
        if (stmt.grainsize) rename(*stmt.grainsize);
        if (stmt.num_tasks) rename(*stmt.num_tasks);
        if (stmt.kind == Stmt::Kind::kOmpTaskloop) {
          rename(*stmt.expr);  // full-range lo/hi, evaluated at the call site
          rename(*stmt.rhs);
        }
        break;
      case Stmt::Kind::kOmpWsLoop: {
        if (stmt.schedule.chunk) rename(*stmt.schedule.chunk);
        // Collapsed dimensions bind their source loop variables over the
        // canonicalized body (the backends re-declare them per iteration),
        // so a matching name is shadowed exactly like a kForRange capture.
        bool shadowed = false;
        for (const auto& dim : stmt.collapse) {
          if (dim.iv == from_) shadowed = true;
        }
        if (!shadowed) rename(*stmt.body);
        break;
      }
      case Stmt::Kind::kOmpCritical:
      case Stmt::Kind::kOmpSingle:
      case Stmt::Kind::kOmpMaster:
      case Stmt::Kind::kOmpAtomic:
      case Stmt::Kind::kOmpOrdered:
      case Stmt::Kind::kOmpTaskgroup:
        rename(*stmt.body);
        break;
      case Stmt::Kind::kOmpReductionInit:
        if (stmt.target == from_) stmt.target = to_;
        break;
      case Stmt::Kind::kOmpReductionCombine:
      case Stmt::Kind::kOmpLastprivateWrite:
        if (stmt.name == from_) stmt.name = to_;
        if (stmt.target == from_) stmt.target = to_;
        break;
      default:
        break;
    }
  }

  void rename(Expr& expr) {
    if (expr.kind == Expr::Kind::kVarRef && expr.name == from_) {
      expr.name = to_;
      return;
    }
    for (auto& a : expr.args) rename(*a);
  }

 private:
  std::string from_;
  std::string to_;
  bool shadowed_ = false;
};

/// red_pack value for combine #i of a construct's run of n (see
/// Stmt::red_pack): the head carries the run length, the rest 0.
int run_length(std::size_t i, std::size_t n) {
  return i == 0 ? static_cast<int>(n) : 0;
}

bool is_firstprivate(const Directive& d, const std::string& n) {
  return std::ranges::find(d.firstprivate_vars, n) != d.firstprivate_vars.end();
}

lang::ScheduleSpec clone_schedule(const lang::ScheduleSpec& spec) {
  lang::ScheduleSpec out;
  out.kind = spec.kind;
  if (spec.chunk) out.chunk = lang::clone_expr(*spec.chunk);
  return out;
}

// -- Small AST builders for the collapse canonicalization ---------------------

ExprPtr make_var(const std::string& name, lang::SourceLoc loc) {
  auto e = Expr::make(Expr::Kind::kVarRef, loc);
  e->name = name;
  return e;
}

ExprPtr make_int(std::int64_t value, lang::SourceLoc loc) {
  auto e = Expr::make(Expr::Kind::kIntLit, loc);
  e->int_value = value;
  return e;
}

ExprPtr make_bin(lang::BinOp op, ExprPtr lhs, ExprPtr rhs,
                 lang::SourceLoc loc) {
  auto e = Expr::make(Expr::Kind::kBinary, loc);
  e->bin_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr make_max(ExprPtr a, ExprPtr b, lang::SourceLoc loc) {
  auto e = Expr::make(Expr::Kind::kBuiltinCall, loc);
  e->builtin = lang::Builtin::kMax;
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

StmtPtr make_const_decl(const std::string& name, ExprPtr init,
                        lang::SourceLoc loc) {
  auto decl = Stmt::make(Stmt::Kind::kVarDecl, loc);
  decl->name = name;
  decl->is_const = true;
  decl->init = std::move(init);
  return decl;
}

/// Collects every variable name referenced by `expr` into `out`.
void collect_var_refs(const Expr& expr, std::vector<std::string>& out) {
  if (expr.kind == Expr::Kind::kVarRef) out.push_back(expr.name);
  for (const auto& a : expr.args) collect_var_refs(*a, out);
}

class Transformer {
 public:
  Transformer(Module& module, lang::Diagnostics& diags, TransformStats& stats)
      : module_(module), diags_(diags), stats_(stats) {}

  bool run() {
    names_ = ModuleNames::collect(module_);
    // Module functions grow while we scan (outlined functions are appended
    // and themselves scanned for nested regions); index loop on purpose.
    for (std::size_t i = 0; i < module_.functions.size(); ++i) {
      FnDecl* fn = module_.functions[i].get();
      if (fn->body) scan_block(fn, *fn->body);
    }
    return !failed_;
  }

 private:
  void error(lang::SourceLoc loc, const std::string& message) {
    diags_.error(loc, message);
    failed_ = true;
  }

  // -- Scanning ----------------------------------------------------------------

  void scan_block(FnDecl* fn, Stmt& block) {
    for (auto& slot : block.stmts) {
      if (!slot->pending_directives.empty()) {
        apply_pending(fn, slot);
      }
      scan_children(fn, *slot);
    }
  }

  void scan_children(FnDecl* fn, Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        scan_block(fn, stmt);
        break;
      case Stmt::Kind::kIf:
        scan_children(fn, *stmt.then_block);
        if (stmt.else_block) scan_children(fn, *stmt.else_block);
        break;
      case Stmt::Kind::kWhile:
      case Stmt::Kind::kForRange:
        scan_children(fn, *stmt.body);
        break;
      case Stmt::Kind::kOmpWsLoop:
      case Stmt::Kind::kOmpCritical:
      case Stmt::Kind::kOmpSingle:
      case Stmt::Kind::kOmpMaster:
      case Stmt::Kind::kOmpAtomic:
      case Stmt::Kind::kOmpOrdered:
      case Stmt::Kind::kOmpTaskgroup:
        scan_children(fn, *stmt.body);
        break;
      default:
        break;
    }
  }

  void apply_pending(FnDecl* fn, StmtPtr& slot) {
    auto pending = std::move(slot->pending_directives);
    slot->pending_directives.clear();
    std::vector<std::unique_ptr<Directive>> directives;
    for (auto& [text, loc] : pending) {
      ++stats_.directives_seen;
      auto d = parse_directive(text, loc, diags_);
      if (!d) {
        failed_ = true;
        continue;
      }
      directives.push_back(std::move(d));
    }
    // Directives written above a statement nest outside-in; apply the
    // innermost (closest to the statement) first.
    StmtPtr current = std::move(slot);
    for (auto it = directives.rbegin(); it != directives.rend(); ++it) {
      current = apply_directive(fn, **it, std::move(current));
    }
    slot = std::move(current);
  }

  // -- Directive application -----------------------------------------------------

  StmtPtr apply_directive(FnDecl* fn, Directive& d, StmtPtr stmt) {
    switch (d.kind) {
      case DirectiveKind::kParallel:
        return lower_parallel(fn, d, std::move(stmt));
      case DirectiveKind::kParallelFor: {
        if (stmt->kind != Stmt::Kind::kForRange) {
          error(d.loc, "'parallel for' must immediately precede a for loop");
          return stmt;
        }
        StmtPtr ws = lower_for(fn, d, std::move(stmt));
        auto region = Stmt::make(Stmt::Kind::kBlock, d.loc);
        region->stmts.push_back(std::move(ws));
        // Reductions were already attached at the worksharing level; the
        // parallel level re-captures the same variables as reduction
        // pointers via lower_parallel's clause handling.
        return lower_parallel(fn, d, std::move(region));
      }
      case DirectiveKind::kFor:
        if (stmt->kind != Stmt::Kind::kForRange) {
          error(d.loc, "'for' must immediately precede a for loop");
          return stmt;
        }
        return lower_for(fn, d, std::move(stmt));
      case DirectiveKind::kBarrier:
      case DirectiveKind::kTaskwait:
      case DirectiveKind::kCancel:
      case DirectiveKind::kCancellationPoint: {
        // Standalone directives: the parser attached them to the *following*
        // statement (or to an empty placeholder at block end); the construct
        // precedes that statement rather than consuming it.
        Stmt::Kind kind = Stmt::Kind::kOmpBarrier;
        switch (d.kind) {
          case DirectiveKind::kTaskwait: kind = Stmt::Kind::kOmpTaskwait; break;
          case DirectiveKind::kCancel: kind = Stmt::Kind::kOmpCancel; break;
          case DirectiveKind::kCancellationPoint:
            kind = Stmt::Kind::kOmpCancellationPoint;
            break;
          default: break;
        }
        auto node = Stmt::make(kind, d.loc);
        node->cancel_construct = d.cancel_construct;
        if (is_empty_placeholder(*stmt)) return node;
        auto block = Stmt::make(Stmt::Kind::kBlock, d.loc);
        block->stmts.push_back(std::move(node));
        block->stmts.push_back(std::move(stmt));
        return block;
      }
      case DirectiveKind::kCritical: {
        auto node = Stmt::make(Stmt::Kind::kOmpCritical, d.loc);
        node->name = d.critical_name;
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kSingle: {
        auto node = Stmt::make(Stmt::Kind::kOmpSingle, d.loc);
        node->nowait = d.nowait;
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kMaster: {
        auto node = Stmt::make(Stmt::Kind::kOmpMaster, d.loc);
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kOrdered: {
        auto node = Stmt::make(Stmt::Kind::kOmpOrdered, d.loc);
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kAtomic: {
        if (stmt->kind != Stmt::Kind::kAssign ||
            stmt->assign_op == Stmt::AssignOp::kPlain) {
          error(d.loc,
                "'atomic' must precede a compound assignment (x += expr "
                "and friends)");
          return stmt;
        }
        auto node = Stmt::make(Stmt::Kind::kOmpAtomic, d.loc);
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kTask:
        return lower_task(fn, d, std::move(stmt));
      case DirectiveKind::kTaskgroup: {
        auto node = Stmt::make(Stmt::Kind::kOmpTaskgroup, d.loc);
        node->body = std::move(stmt);
        return node;
      }
      case DirectiveKind::kTaskloop:
        if (stmt->kind != Stmt::Kind::kForRange) {
          error(d.loc, "'taskloop' must immediately precede a for loop");
          return stmt;
        }
        return lower_taskloop(fn, d, std::move(stmt));
    }
    return stmt;
  }

  static bool is_empty_placeholder(const Stmt& stmt) {
    return stmt.kind == Stmt::Kind::kBlock && stmt.stmts.empty();
  }

  // -- parallel -------------------------------------------------------------------

  StmtPtr lower_parallel(FnDecl* fn, Directive& d, StmtPtr region) {
    ++stats_.regions_outlined;
    // Capture set: free variables of the region, in first-use order, plus
    // clause-listed names the body never mentions.
    const std::vector<FreeVar> free_detailed =
        free_variables_detailed(*region, names_);
    std::vector<std::string> captured;
    captured.reserve(free_detailed.size());
    for (const auto& fv : free_detailed) captured.push_back(fv.name);
    std::unordered_set<std::string> seen(captured.begin(), captured.end());
    auto add_clause_names = [&](const std::vector<std::string>& list) {
      for (const auto& n : list) {
        if (seen.insert(n).second) captured.push_back(n);
      }
    };
    add_clause_names(d.shared_vars);
    add_clause_names(d.private_vars);
    add_clause_names(d.firstprivate_vars);
    for (const auto& r : d.reductions) add_clause_names(r.vars);

    // Classify every capture against the data-sharing clauses.
    std::unordered_map<std::string, CaptureMode> mode;
    std::unordered_map<std::string, ReduceOp> red_op;
    std::unordered_map<std::string, int> section_len;
    for (const auto& n : d.private_vars) mode[n] = CaptureMode::kValue;
    for (const auto& n : d.firstprivate_vars) mode[n] = CaptureMode::kValue;
    for (const auto& n : d.shared_vars) mode[n] = CaptureMode::kSharedPtr;
    for (const auto& r : d.reductions) {
      for (std::size_t j = 0; j < r.vars.size(); ++j) {
        const std::string& n = r.vars[j];
        mode[n] = CaptureMode::kReductionPtr;
        red_op[n] = r.op;
        section_len[n] = r.section_lens[j];
      }
    }
    // firstprivate + lastprivate (only on `parallel for`): lower_for writes
    // `a` back through `a__orig`, a second capture of the original, by
    // pointer. A member copies its by-value captures when it starts, maybe
    // after that writeback, so `a` is captured from a snapshot taken before
    // the fork.
    std::unordered_map<std::string, std::string> source;  // param -> variable
    std::vector<StmtPtr> snapshots;
    for (const auto& n : d.lastprivate_vars) {
      if (!is_firstprivate(d, n)) continue;
      source[n] = n + "__first";
      source[n + "__orig"] = n;
      mode[n + "__orig"] = CaptureMode::kSharedPtr;
      auto snapshot = Stmt::make(Stmt::Kind::kVarDecl, d.loc);
      snapshot->name = n + "__first";
      snapshot->is_const = true;
      snapshot->init = make_var(n, d.loc);
      snapshots.push_back(std::move(snapshot));
    }
    for (const auto& n : captured) {
      if (mode.contains(n)) continue;
      if (d.default_mode == DefaultKind::kNone) {
        report_default_none_violation(d, n, free_detailed, *region);
      }
      mode[n] = CaptureMode::kSharedPtr;  // default(shared)
    }

    // Synthesize the outlined function.
    FnDecl* outlined = new_outlined_fn(fn, "parallel");
    auto body = Stmt::make(Stmt::Kind::kBlock, d.loc);
    // Reduction prolog: private accumulator, named like the variable so the
    // region body's references resolve to it; the shared target rides in the
    // renamed pointer-carrying parameter.
    std::vector<std::string> reduction_names;
    for (const auto& n : captured) {
      if (mode[n] != CaptureMode::kReductionPtr) continue;
      reduction_names.push_back(n);
      auto init = Stmt::make(Stmt::Kind::kOmpReductionInit, d.loc);
      init->name = n;
      init->target = n + "__red";
      init->reduce_op = red_op[n];
      init->section_len = section_len[n];
      if (init->section_len > 0) section_privates_[outlined][n] = n;
      body->stmts.push_back(std::move(init));
    }
    body->stmts.push_back(std::move(region));
    // All of the construct's combines are emitted adjacently and the first
    // carries the run length: backends pack the run into ONE zomp_reduce
    // rendezvous (struct payload, one barrier-equivalent for k variables —
    // see runtime/reduce.h), whatever the number of variables and sections.
    for (std::size_t i = 0; i < reduction_names.size(); ++i) {
      const auto& n = reduction_names[i];
      auto combine = Stmt::make(Stmt::Kind::kOmpReductionCombine, d.loc);
      combine->name = n;
      combine->target = n + "__red";
      combine->reduce_op = red_op[n];
      combine->section_len = section_len[n];
      combine->red_pack = run_length(i, reduction_names.size());
      body->stmts.push_back(std::move(combine));
      // Region-end join barrier publishes the combined value.
    }
    for (const auto& n : captured) {
      lang::Param param;
      param.name = mode[n] == CaptureMode::kReductionPtr ? n + "__red" : n;
      param.type = lang::Type::inferred();
      param.loc = d.loc;
      outlined->params.push_back(std::move(param));
    }
    outlined->body = std::move(body);
    // Remember each parameter's sharing mode: tasks nested in this region
    // inherit shared-ness for these names (OpenMP's task data-sharing rule).
    for (const auto& n : captured) {
      outlined_modes_[outlined][n] = mode[n];
    }

    // Replace the region with the fork.
    auto fork = Stmt::make(Stmt::Kind::kOmpFork, d.loc);
    fork->callee = outlined->name;
    for (const auto& n : captured) {
      CaptureArg cap;
      cap.name = source.contains(n) ? source[n] : n;
      cap.mode = mode[n];
      if (cap.mode == CaptureMode::kReductionPtr) {
        cap.reduce_op = red_op[n];
        cap.section_len = section_len[n];
      }
      fork->captures.push_back(std::move(cap));
    }
    if (d.num_threads) fork->num_threads = std::move(d.num_threads);
    if (d.if_clause) fork->if_clause = std::move(d.if_clause);
    if (d.proc_bind != ProcBindKind::kUnspecified) {
      fork->proc_bind = static_cast<int>(d.proc_bind);
    }
    if (snapshots.empty()) return fork;
    auto block = Stmt::make(Stmt::Kind::kBlock, d.loc);
    block->stmts = std::move(snapshots);
    block->stmts.push_back(std::move(fork));
    return block;
  }

  /// How a region uses a variable, for the default(none) suggestion.
  enum class UseKind { kRead, kWrite, kCompound };

  /// Finds the strongest use of `name` in `stmt`: a compound assignment
  /// (candidate reduction) beats a plain write beats a read. Shadowing is
  /// deliberately ignored — this only shapes a diagnostic suggestion.
  static void scan_use(const Stmt& stmt, const std::string& name,
                       UseKind& kind, Stmt::AssignOp& op) {
    if (stmt.kind == Stmt::Kind::kAssign && stmt.lhs != nullptr &&
        stmt.lhs->kind == Expr::Kind::kVarRef && stmt.lhs->name == name) {
      if (stmt.assign_op != Stmt::AssignOp::kPlain) {
        kind = UseKind::kCompound;
        op = stmt.assign_op;
      } else if (kind == UseKind::kRead) {
        kind = UseKind::kWrite;
      }
    }
    for (const auto& s : stmt.stmts) scan_use(*s, name, kind, op);
    for (const Stmt* child :
         {stmt.then_block.get(), stmt.else_block.get(), stmt.step.get(),
          stmt.body.get()}) {
      if (child != nullptr) scan_use(*child, name, kind, op);
    }
  }

  /// The default(none) diagnostic: point at the variable's first use inside
  /// the region and suggest the clauses that would make it legal.
  void report_default_none_violation(const Directive& d, const std::string& n,
                                     const std::vector<FreeVar>& free_detailed,
                                     const Stmt& region) {
    lang::SourceLoc use_loc = d.loc;
    for (const auto& fv : free_detailed) {
      if (fv.name == n) {
        use_loc = fv.first_use;
        break;
      }
    }
    UseKind kind = UseKind::kRead;
    Stmt::AssignOp op = Stmt::AssignOp::kPlain;
    scan_use(region, n, kind, op);
    std::string suggestion;
    switch (kind) {
      case UseKind::kRead:
        suggestion = "it is only read — add 'shared(" + n +
                     ")' or 'firstprivate(" + n + ")'";
        break;
      case UseKind::kWrite:
        suggestion = "it is assigned — add 'private(" + n + ")' or 'shared(" +
                     n + ")' (with synchronisation)";
        break;
      case UseKind::kCompound: {
        const char* red_op = nullptr;
        switch (op) {
          case Stmt::AssignOp::kAdd: red_op = "+"; break;
          case Stmt::AssignOp::kSub: red_op = "-"; break;
          case Stmt::AssignOp::kMul: red_op = "*"; break;
          default: break;
        }
        suggestion = "it accumulates — add ";
        if (red_op != nullptr) {
          suggestion += "'reduction(" + std::string(red_op) + ": " + n +
                        ")', or ";
        }
        suggestion += "'shared(" + n + ")' (with synchronisation) or 'private(" +
                      n + ")'";
        break;
      }
    }
    error(use_loc, "default(none): variable '" + n +
                       "' needs an explicit data-sharing clause on the "
                       "enclosing '" +
                       directive_kind_name(d.kind) + "' directive (line " +
                       std::to_string(d.loc.line) + "); " + suggestion);
  }

  // -- worksharing loop ---------------------------------------------------------

  /// Rewrites a perfectly-nested rectangular `collapse(n)` nest into a single
  /// loop over the linearized space [0, N1*...*Nn), filling `ws.collapse`
  /// with the per-dimension metadata the backends need and `prolog` with the
  /// synthesized bound / extent / stride / total declarations. Returns the
  /// canonicalized loop, or the original nest (with diagnostics) when the
  /// nest does not qualify.
  StmtPtr canonicalize_collapse(Directive& d, StmtPtr outer, Stmt& ws,
                                std::vector<StmtPtr>& prolog) {
    const int depth = d.collapse;
    std::vector<Stmt*> levels{outer.get()};
    std::unordered_set<std::string> iv_names{outer->name};
    for (int k = 1; k < depth; ++k) {
      Stmt& parent = *levels.back();
      Stmt* body = parent.body.get();
      Stmt* inner = nullptr;
      if (body->kind == Stmt::Kind::kForRange) {
        inner = body;
      } else if (body->kind == Stmt::Kind::kBlock && body->stmts.size() == 1 &&
                 body->stmts[0]->kind == Stmt::Kind::kForRange) {
        inner = body->stmts[0].get();
      }
      if (inner == nullptr) {
        error(d.loc, "collapse(" + std::to_string(depth) +
                         ") requires a perfectly nested loop: the body of "
                         "loop '" +
                         parent.name +
                         "' must be exactly one inner for loop (depth " +
                         std::to_string(k + 1) + " is missing)");
        return outer;
      }
      if (!inner->pending_directives.empty()) {
        error(d.loc,
              "collapse(...): directives are not allowed between the "
              "collapsed loops");
        return outer;
      }
      if (!iv_names.insert(inner->name).second) {
        error(d.loc, "collapse(...): loop variables must be distinct ('" +
                         inner->name + "' repeats)");
        return outer;
      }
      levels.push_back(inner);
    }

    // Rectangularity: no inner bound may reference an outer loop variable —
    // the linearized trip count is evaluated once, before the loop.
    for (std::size_t k = 1; k < levels.size(); ++k) {
      std::vector<std::string> refs;
      collect_var_refs(*levels[k]->expr, refs);
      collect_var_refs(*levels[k]->rhs, refs);
      for (const auto& r : refs) {
        for (std::size_t outer_k = 0; outer_k < k; ++outer_k) {
          if (r == levels[outer_k]->name) {
            error(d.loc,
                  "collapse(...) requires a rectangular iteration space: a "
                  "bound of loop '" +
                      levels[k]->name + "' references outer loop variable '" +
                      r + "'");
            return outer;
          }
        }
      }
    }

    const std::string tag = "__omp_c" + std::to_string(collapse_counter_++);
    auto dim_name = [&](int k, const char* suffix) {
      return tag + "_d" + std::to_string(k) + suffix;
    };
    // Per-dimension lower bound and extent. The extent clamps at zero so one
    // degenerate dimension empties the whole linearized space (and keeps the
    // stride products non-negative).
    for (int k = 0; k < depth; ++k) {
      Stmt& level = *levels[static_cast<std::size_t>(k)];
      prolog.push_back(
          make_const_decl(dim_name(k, "_lo"), std::move(level.expr), d.loc));
      prolog.push_back(make_const_decl(
          dim_name(k, "_n"),
          make_max(make_bin(lang::BinOp::kSub, std::move(level.rhs),
                            make_var(dim_name(k, "_lo"), d.loc), d.loc),
                   make_int(0, d.loc), d.loc),
          d.loc));
    }
    // Strides, innermost first (1), each the product of the inner extents.
    for (int k = depth - 1; k >= 0; --k) {
      ExprPtr init =
          k == depth - 1
              ? make_int(1, d.loc)
              : make_bin(lang::BinOp::kMul, make_var(dim_name(k + 1, "_s"), d.loc),
                         make_var(dim_name(k + 1, "_n"), d.loc), d.loc);
      prolog.push_back(make_const_decl(dim_name(k, "_s"), std::move(init), d.loc));
    }
    prolog.push_back(make_const_decl(
        tag + "_total",
        make_bin(lang::BinOp::kMul, make_var(dim_name(0, "_s"), d.loc),
                 make_var(dim_name(0, "_n"), d.loc), d.loc),
        d.loc));

    for (int k = 0; k < depth; ++k) {
      lang::CollapseDim dim;
      dim.iv = levels[static_cast<std::size_t>(k)]->name;
      dim.lo = dim_name(k, "_lo");
      dim.extent = dim_name(k, "_n");
      dim.stride = dim_name(k, "_s");
      ws.collapse.push_back(std::move(dim));
    }

    // The canonical loop: a fresh linearized induction variable over the
    // flat space, carrying the innermost body. The original induction
    // variables are recomputed per logical iteration by the backends from
    // ws.collapse (iv = lo + (flat / stride) % extent).
    auto flat = Stmt::make(Stmt::Kind::kForRange, outer->loc);
    flat->name = tag + "_flat";
    flat->expr = make_int(0, d.loc);
    flat->rhs = make_var(tag + "_total", d.loc);
    flat->body = std::move(levels.back()->body);
    return flat;
  }

  StmtPtr lower_for(FnDecl* fn, Directive& d, StmtPtr loop) {
    ++stats_.ws_loops;
    const bool standalone = d.kind == DirectiveKind::kFor;

    auto ws = Stmt::make(Stmt::Kind::kOmpWsLoop, d.loc);
    ws->schedule = clone_schedule(d.schedule);
    ws->ordered = d.ordered;

    // collapse(n>1): linearize the nest first so lastprivate / reduction
    // rewrites below see one canonical loop and the existing static /
    // dynamic / guided machinery distributes the flat space unchanged.
    std::vector<StmtPtr> prolog;
    if (d.collapse > 1) {
      loop = canonicalize_collapse(d, std::move(loop), *ws, prolog);
    }

    // Names bound by the associated loop itself. A clause naming one of
    // them is meaningless here: MiniZig loop variables are per-iteration
    // constants with no post-loop value (Zig `for (a..b) |i|` scoping), so
    // privatizing them would silently produce zeros — reject instead.
    std::vector<std::string> iv_names;
    if (!ws->collapse.empty()) {
      for (const auto& dim : ws->collapse) iv_names.push_back(dim.iv);
    } else {
      iv_names.push_back(loop->name);
    }
    auto is_loop_iv = [&](const std::string& n) {
      return std::find(iv_names.begin(), iv_names.end(), n) != iv_names.end();
    };
    for (const auto& n : d.lastprivate_vars) {
      if (is_loop_iv(n)) {
        error(d.loc, "lastprivate variable '" + n +
                         "' is a loop variable of the associated loop; "
                         "MiniZig loop variables are per-iteration constants "
                         "with no post-loop value");
      }
    }
    for (const auto& r : d.reductions) {
      for (const auto& n : r.vars) {
        if (is_loop_iv(n)) {
          error(d.loc, "reduction variable '" + n +
                           "' is a loop variable of the associated loop");
        }
      }
    }
    // Renames body references of `from` to the private copy `to`. The
    // loop-control expressions are excluded on purpose: bounds are evaluated
    // at construct entry against the *original* variable (renaming them
    // would read the value-initialized private copy). A name bound by the
    // loop itself is shadowed throughout the body — nothing to rename (and
    // the clause was rejected above).
    auto rename_in_body = [&](const std::string& from, const std::string& to) {
      if (is_loop_iv(from) || loop->name == from) return;
      Renamer renamer(from, to);
      renamer.rename(*loop->body);
    };

    // lastprivate: loop runs on a private copy; the runtime's last-iteration
    // flag guards the writeback. (The last linearized iteration of a
    // collapsed nest is the sequentially-last logical iteration, so the
    // same flag is correct there.)
    for (const auto& n : d.lastprivate_vars) {
      const std::string priv = n + "__lp";
      const bool first = is_firstprivate(d, n);
      auto decl = Stmt::make(Stmt::Kind::kVarDecl, d.loc);
      decl->name = priv;
      // With firstprivate, the init reads the member's own by-value copy.
      // Otherwise it names the source variable so sema can type the private
      // copy, but it is a type hint only: backends value-initialize.
      // Actually reading the shared variable here would race the
      // lastprivate writeback of a member that finished a nowait loop
      // (lastprivate's pre-last value is unspecified, so a zero is legal).
      auto init = Expr::make(Expr::Kind::kVarRef, d.loc);
      init->name = n;
      decl->init = std::move(init);
      decl->init_is_type_hint = !first;
      prolog.push_back(std::move(decl));
      rename_in_body(n, priv);
      ws->lastprivate.emplace_back(priv, first ? n + "__orig" : n);
    }

    if (standalone && !d.reductions.empty()) {
      // `omp for reduction(...)` inside an existing region: private
      // accumulator, then the team's tree combine into the visible
      // variable, then a barrier (unless nowait).
      auto block = Stmt::make(Stmt::Kind::kBlock, d.loc);
      std::vector<const Stmt*> inits;
      for (const auto& r : d.reductions) {
        for (std::size_t j = 0; j < r.vars.size(); ++j) {
          const std::string& n = r.vars[j];
          const std::string priv = n + "__prv";
          auto init = Stmt::make(Stmt::Kind::kOmpReductionInit, d.loc);
          init->name = priv;
          init->target = n;
          init->reduce_op = r.op;
          init->section_len = r.section_lens[j];
          if (init->section_len > 0) section_privates_[fn][priv] = n;
          inits.push_back(init.get());
          block->stmts.push_back(std::move(init));
          rename_in_body(n, priv);
        }
      }
      for (auto& p : prolog) block->stmts.push_back(std::move(p));
      ws->nowait = true;  // combine first, then barrier below
      ws->body = std::move(loop);
      block->stmts.push_back(std::move(ws));
      // Adjacent combines, head carries the run length: one packed
      // rendezvous for the whole construct (see lower_parallel).
      for (std::size_t i = 0; i < inits.size(); ++i) {
        const Stmt& init = *inits[i];
        auto combine = Stmt::make(Stmt::Kind::kOmpReductionCombine, d.loc);
        combine->name = init.name;
        combine->target = init.target;
        combine->reduce_op = init.reduce_op;
        combine->section_len = init.section_len;
        combine->red_pack = run_length(i, inits.size());
        block->stmts.push_back(std::move(combine));
      }
      if (!d.nowait) {
        block->stmts.push_back(Stmt::make(Stmt::Kind::kOmpBarrier, d.loc));
      }
      return block;
    }

    ws->nowait = standalone ? d.nowait : true;  // combined form: join barrier suffices
    ws->body = std::move(loop);
    if (prolog.empty()) return ws;
    auto block = Stmt::make(Stmt::Kind::kBlock, d.loc);
    for (auto& p : prolog) block->stmts.push_back(std::move(p));
    block->stmts.push_back(std::move(ws));
    return block;
  }

  // -- task -----------------------------------------------------------------------

  /// Task data-sharing (OpenMP 5.2 rules, name-approximated at preprocess
  /// time): explicit clauses win; otherwise a variable that is *shared in
  /// the enclosing region* (a shared-mode parameter of the enclosing
  /// outlined function) stays shared, and everything else is firstprivate.
  /// Shared by `task` and `taskloop` lowering.
  CaptureMode task_mode_of(FnDecl* fn, const Directive& d,
                           const std::string& n) {
    for (const auto& p : d.private_vars) {
      if (p == n) return CaptureMode::kValue;
    }
    for (const auto& p : d.firstprivate_vars) {
      if (p == n) return CaptureMode::kValue;
    }
    for (const auto& p : d.shared_vars) {
      if (p == n) return CaptureMode::kSharedPtr;
    }
    if (const auto fn_it = outlined_modes_.find(fn);
        fn_it != outlined_modes_.end()) {
      if (const auto it = fn_it->second.find(n); it != fn_it->second.end()) {
        if (it->second == CaptureMode::kSharedPtr ||
            it->second == CaptureMode::kSharedSlice) {
          return it->second;
        }
      }
    }
    return CaptureMode::kValue;
  }

  StmtPtr lower_task(FnDecl* fn, Directive& d, StmtPtr region) {
    ++stats_.tasks_outlined;
    std::vector<std::string> captured = free_variables(*region, names_);
    std::unordered_set<std::string> seen(captured.begin(), captured.end());
    auto add_names = [&](const std::vector<std::string>& list) {
      for (const auto& n : list) {
        if (seen.insert(n).second) captured.push_back(n);
      }
    };
    add_names(d.firstprivate_vars);
    add_names(d.private_vars);
    add_names(d.shared_vars);
    // A deferred task may run after its member left the reduction
    // construct, when the section's private array is gone.
    if (const auto it = section_privates_.find(fn);
        it != section_privates_.end()) {
      for (const auto& n : captured) {
        if (const auto sec = it->second.find(n); sec != it->second.end()) {
          error(d.loc, "task cannot capture reduction section '" +
                           sec->second +
                           "' inside its construct: the task may outlive the "
                           "member's private copy of the section");
        }
      }
    }

    FnDecl* outlined = new_outlined_fn(fn, "task");
    for (const auto& n : captured) {
      lang::Param param;
      param.name = n;
      param.type = lang::Type::inferred();
      param.loc = d.loc;
      outlined->params.push_back(std::move(param));
    }
    auto body = Stmt::make(Stmt::Kind::kBlock, d.loc);
    body->stmts.push_back(std::move(region));
    outlined->body = std::move(body);

    auto task = Stmt::make(Stmt::Kind::kOmpTask, d.loc);
    task->callee = outlined->name;
    for (const auto& n : captured) {
      CaptureArg cap;
      cap.name = n;
      cap.mode = task_mode_of(fn, d, n);
      task->captures.push_back(std::move(cap));
      outlined_modes_[outlined][n] = cap.mode;  // nested tasks inherit
    }
    if (d.if_clause) task->if_clause = std::move(d.if_clause);
    // Dependence items stay expressions on the task node: the backends
    // evaluate them to addresses at creation time, in the enclosing scope
    // (NOT inside the outlined function).
    for (auto& clause : d.depends) {
      const int kind = clause.kind == DependKind::kIn    ? 1
                       : clause.kind == DependKind::kOut ? 2
                                                         : 3;
      for (auto& item : clause.items) {
        Stmt::OmpDepend dep;
        dep.kind = kind;
        dep.item = std::move(item);
        task->depends.push_back(std::move(dep));
      }
    }
    if (d.final_clause) task->final_clause = std::move(d.final_clause);
    if (d.priority) task->priority = std::move(d.priority);
    task->untied = d.untied;
    return task;
  }

  // -- taskloop ---------------------------------------------------------------------

  /// Lowers `taskloop` by outlining ONE chunked task body over synthesized
  /// chunk bounds — the collapse-style canonicalization applied to tasking:
  /// the associated loop becomes `for (chunk_lo .. chunk_hi) |iv|` inside
  /// the outlined function, whose last two parameters carry the bounds, and
  /// the runtime (Team::taskloop) splits the full range into chunk tasks
  /// inside an implicit taskgroup.
  StmtPtr lower_taskloop(FnDecl* fn, Directive& d, StmtPtr loop) {
    ++stats_.tasks_outlined;
    const std::string iv = loop->name;
    // Clauses naming the loop variable are meaningless (MiniZig loop
    // variables are per-iteration constants private to the loop) — reject,
    // mirroring the worksharing-loop diagnostics.
    for (const auto* list :
         {&d.private_vars, &d.firstprivate_vars, &d.shared_vars}) {
      for (const auto& n : *list) {
        if (n == iv) {
          error(d.loc, "variable '" + n +
                           "' is the loop variable of the associated loop "
                           "and cannot appear in a data-sharing clause");
        }
      }
    }

    const std::string tag = "__omp_tl" + std::to_string(taskloop_counter_++);
    const std::string lo_name = tag + "_lo";
    const std::string hi_name = tag + "_hi";

    // The outlined chunk body: for (chunk_lo .. chunk_hi) |iv| { body }.
    auto chunk_loop = Stmt::make(Stmt::Kind::kForRange, loop->loc);
    chunk_loop->name = iv;
    chunk_loop->expr = make_var(lo_name, d.loc);
    chunk_loop->rhs = make_var(hi_name, d.loc);
    chunk_loop->body = std::move(loop->body);

    // Captures: free variables of the chunk body (minus the synthesized
    // bound names, which become parameters) plus clause-only names.
    std::vector<std::string> captured;
    for (auto& name : free_variables(*chunk_loop, names_)) {
      if (name != lo_name && name != hi_name) captured.push_back(std::move(name));
    }
    std::unordered_set<std::string> seen(captured.begin(), captured.end());
    auto add_names = [&](const std::vector<std::string>& list) {
      for (const auto& n : list) {
        if (n != iv && seen.insert(n).second) captured.push_back(n);
      }
    };
    add_names(d.firstprivate_vars);
    add_names(d.private_vars);
    add_names(d.shared_vars);

    FnDecl* outlined = new_outlined_fn(fn, "taskloop");
    for (const auto& n : captured) {
      lang::Param param;
      param.name = n;
      param.type = lang::Type::inferred();
      param.loc = d.loc;
      outlined->params.push_back(std::move(param));
    }
    // Chunk bounds ride as the LAST two parameters (i64 by value; sema
    // types them at the taskloop site).
    for (const std::string* bound : {&lo_name, &hi_name}) {
      lang::Param param;
      param.name = *bound;
      param.type = lang::Type::inferred();
      param.loc = d.loc;
      outlined->params.push_back(std::move(param));
    }
    auto body = Stmt::make(Stmt::Kind::kBlock, d.loc);
    body->stmts.push_back(std::move(chunk_loop));
    outlined->body = std::move(body);

    auto node = Stmt::make(Stmt::Kind::kOmpTaskloop, d.loc);
    node->callee = outlined->name;
    node->expr = std::move(loop->expr);  // full-range lo, creation-site scope
    node->rhs = std::move(loop->rhs);    // full-range hi
    for (const auto& n : captured) {
      CaptureArg cap;
      cap.name = n;
      cap.mode = task_mode_of(fn, d, n);
      node->captures.push_back(std::move(cap));
      outlined_modes_[outlined][n] = cap.mode;  // nested tasks inherit
    }
    if (d.grainsize) node->grainsize = std::move(d.grainsize);
    if (d.num_tasks) node->num_tasks = std::move(d.num_tasks);
    return node;
  }

  FnDecl* new_outlined_fn(FnDecl* parent, const char* kind) {
    auto fn = std::make_unique<FnDecl>();
    fn->name = "__omp_" + parent->name + "_" + kind + "_" +
               std::to_string(counter_++);
    fn->is_outlined = true;
    fn->return_type = lang::Type::void_type();
    fn->loc = parent->loc;
    FnDecl* raw = fn.get();
    module_.functions.push_back(std::move(fn));
    names_.functions.insert(raw->name);
    return raw;
  }

  Module& module_;
  lang::Diagnostics& diags_;
  TransformStats& stats_;
  ModuleNames names_;
  /// Sharing mode of each outlined function's parameters, by source name —
  /// consulted when lowering tasks nested inside that function.
  std::unordered_map<const FnDecl*, std::unordered_map<std::string, CaptureMode>>
      outlined_modes_;
  /// Private copies of reduction array sections, per function: private name
  /// -> source name. A section's private array lives on the member's stack
  /// until its construct's combine, so no task may capture it.
  std::unordered_map<const FnDecl*, std::unordered_map<std::string, std::string>>
      section_privates_;
  int counter_ = 0;
  int collapse_counter_ = 0;
  int taskloop_counter_ = 0;
  bool failed_ = false;
};

}  // namespace

bool apply_openmp(lang::Module& module, lang::Diagnostics& diags,
                  TransformStats* stats) {
  TransformStats local;
  Transformer transformer(module, diags, stats != nullptr ? *stats : local);
  return transformer.run();
}

}  // namespace zomp::core
