// Optimizer pass implementations (see passes.h for the pipeline contract).
#include "core/passes.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lang/sema.h"

namespace zomp::core {
namespace {

using lang::CaptureArg;
using lang::CaptureMode;
using lang::Expr;
using lang::ExprPtr;
using lang::FnDecl;
using lang::Module;
using lang::Param;
using lang::Stmt;
using lang::StmtPtr;

// ---------------------------------------------------------------------------
// Walking helpers (never cross function boundaries: outlined bodies live in
// their own FnDecls and are visited through their unique fork sites or by the
// module loop, exactly like sema).
// ---------------------------------------------------------------------------

template <typename F>
void walk_stmts(const Stmt& stmt, F&& fn) {
  fn(stmt);
  for (const auto& s : stmt.stmts) walk_stmts(*s, fn);
  if (stmt.then_block) walk_stmts(*stmt.then_block, fn);
  if (stmt.else_block) walk_stmts(*stmt.else_block, fn);
  if (stmt.step) walk_stmts(*stmt.step, fn);
  if (stmt.body) walk_stmts(*stmt.body, fn);
}

template <typename F>
void walk_exprs(const Expr& e, F&& fn) {
  fn(e);
  for (const auto& a : e.args) walk_exprs(*a, fn);
}

/// Every expression directly owned by `stmt` (child statements excluded).
template <typename F>
void for_each_stmt_expr(const Stmt& stmt, F&& fn) {
  auto visit = [&](const ExprPtr& p) {
    if (p) walk_exprs(*p, fn);
  };
  visit(stmt.init);
  visit(stmt.lhs);
  visit(stmt.rhs);
  visit(stmt.expr);
  visit(stmt.num_threads);
  visit(stmt.if_clause);
  for (const auto& d : stmt.depends) visit(d.item);
  visit(stmt.final_clause);
  visit(stmt.priority);
  visit(stmt.grainsize);
  visit(stmt.num_tasks);
  visit(stmt.schedule.chunk);
}

bool is_ptr_capture(CaptureMode m) {
  return m == CaptureMode::kSharedPtr || m == CaptureMode::kReductionPtr;
}

/// Names a statement subtree may write through (direct assignment, or handing
/// the address to a nested region/task).
void collect_assigned_names(const Stmt& root,
                            std::unordered_set<std::string>& out) {
  walk_stmts(root, [&](const Stmt& s) {
    if (s.kind == Stmt::Kind::kAssign && s.lhs &&
        s.lhs->kind == Expr::Kind::kVarRef) {
      out.insert(s.lhs->name);
    }
    if (s.kind == Stmt::Kind::kOmpFork || s.kind == Stmt::Kind::kOmpTask ||
        s.kind == Stmt::Kind::kOmpTaskloop) {
      for (const auto& c : s.captures) {
        if (is_ptr_capture(c.mode)) out.insert(c.name);
      }
    }
    if (s.kind == Stmt::Kind::kOmpLastprivateWrite) out.insert(s.target);
    if (s.kind == Stmt::Kind::kOmpReductionCombine) out.insert(s.target);
  });
}

/// Names whose value can change behind the const-tracker's back anywhere in
/// `root`: address taken, or passed by pointer to a region/task (a task may
/// write it at any later point, so the disqualification is subtree-wide).
/// A shared-ptr capture of a `const`-declared name is exempt: sema rejects
/// every assignment to a const, so no region can write through that pointer
/// — which is exactly what lets the folder see through the shared capture
/// of a constant loop bound (the common `const n = ...; parallel for 0..n`
/// shape). Reduction captures are written by the combine regardless of
/// declared const-ness, so they always disqualify.
void collect_disqualified_names(const Stmt& root,
                                std::unordered_set<std::string>& out) {
  std::unordered_set<std::string> const_decls;
  walk_stmts(root, [&](const Stmt& s) {
    if (s.kind == Stmt::Kind::kVarDecl && s.is_const) {
      const_decls.insert(s.name);
    }
  });
  walk_stmts(root, [&](const Stmt& s) {
    for_each_stmt_expr(s, [&](const Expr& e) {
      if (e.kind == Expr::Kind::kAddrOf && !e.args.empty() &&
          e.args[0]->kind == Expr::Kind::kVarRef) {
        out.insert(e.args[0]->name);
      }
    });
    if (s.kind == Stmt::Kind::kOmpFork || s.kind == Stmt::Kind::kOmpTask ||
        s.kind == Stmt::Kind::kOmpTaskloop) {
      for (const auto& c : s.captures) {
        if (c.mode == CaptureMode::kReductionPtr ||
            (is_ptr_capture(c.mode) && !const_decls.contains(c.name))) {
          out.insert(c.name);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// fold — directive-operand constant folding
// ---------------------------------------------------------------------------

struct ConstVal {
  bool is_bool = false;
  std::int64_t i = 0;
  bool b = false;
};

using ConstEnv = std::unordered_map<std::string, ConstVal>;

std::optional<ConstVal> eval_const(const Expr& e, const ConstEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
      return ConstVal{false, e.int_value, false};
    case Expr::Kind::kBoolLit:
      return ConstVal{true, 0, e.bool_value};
    case Expr::Kind::kVarRef: {
      auto it = env.find(e.name);
      if (it == env.end()) return std::nullopt;
      return it->second;
    }
    case Expr::Kind::kUnary: {
      auto v = eval_const(*e.args[0], env);
      if (!v) return std::nullopt;
      if (e.un_op == lang::UnOp::kNeg) {
        if (v->is_bool || v->i == INT64_MIN) return std::nullopt;
        return ConstVal{false, -v->i, false};
      }
      if (!v->is_bool) return std::nullopt;
      return ConstVal{true, 0, !v->b};
    }
    case Expr::Kind::kBinary: {
      auto l = eval_const(*e.args[0], env);
      auto r = eval_const(*e.args[1], env);
      if (!l || !r) return std::nullopt;
      using lang::BinOp;
      // Logical: bools only. Both operands are side-effect-free constants,
      // so evaluating the rhs of a short-circuit op is safe.
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        if (!l->is_bool || !r->is_bool) return std::nullopt;
        return ConstVal{true, 0,
                        e.bin_op == BinOp::kAnd ? (l->b && r->b)
                                                : (l->b || r->b)};
      }
      if (l->is_bool || r->is_bool) return std::nullopt;
      const std::int64_t a = l->i, b = r->i;
      std::int64_t out = 0;
      switch (e.bin_op) {
        // Arithmetic folds only when the exact i64 result exists (no
        // signed-overflow guessing on the compiler's part).
        case BinOp::kAdd:
          if (__builtin_add_overflow(a, b, &out)) return std::nullopt;
          break;
        case BinOp::kSub:
          if (__builtin_sub_overflow(a, b, &out)) return std::nullopt;
          break;
        case BinOp::kMul:
          if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
          break;
        case BinOp::kDiv:
          if (b == 0 || (a == INT64_MIN && b == -1)) return std::nullopt;
          out = a / b;
          break;
        case BinOp::kRem:
          if (b == 0 || (a == INT64_MIN && b == -1)) return std::nullopt;
          out = a % b;
          break;
        case BinOp::kBitAnd: out = a & b; break;
        case BinOp::kBitOr: out = a | b; break;
        case BinOp::kBitXor: out = a ^ b; break;
        case BinOp::kShl:
          if (a < 0 || b < 0 || b > 62) return std::nullopt;
          if (a > (INT64_MAX >> b)) return std::nullopt;
          out = a << b;
          break;
        case BinOp::kShr:
          if (a < 0 || b < 0 || b > 62) return std::nullopt;
          out = a >> b;
          break;
        case BinOp::kEq: return ConstVal{true, 0, a == b};
        case BinOp::kNe: return ConstVal{true, 0, a != b};
        case BinOp::kLt: return ConstVal{true, 0, a < b};
        case BinOp::kLe: return ConstVal{true, 0, a <= b};
        case BinOp::kGt: return ConstVal{true, 0, a > b};
        case BinOp::kGe: return ConstVal{true, 0, a >= b};
        default: return std::nullopt;
      }
      return ConstVal{false, out, false};
    }
    default:
      return std::nullopt;
  }
}

class Folder {
 public:
  Folder(Module& module, PassStats& stats) : module_(module), stats_(stats) {}

  void run() {
    seed_global_env();
    for (auto& fn : module_.functions) {
      if (fn->is_outlined || fn->is_extern || !fn->body) continue;
      fold_function(*fn, global_env_);
    }
  }

 private:
  /// Const globals with (foldable) literal initializers, unless their address
  /// escapes somewhere in the module.
  void seed_global_env() {
    std::unordered_set<std::string> escaped;
    for (const auto& fn : module_.functions) {
      if (fn->body) collect_disqualified_names(*fn->body, escaped);
    }
    for (auto& g : module_.globals) {
      if (g->kind != Stmt::Kind::kVarDecl) continue;
      if (g->init && !g->init_is_type_hint) fold_expr(g->init, global_env_);
      if (!g->is_const || !g->init || escaped.contains(g->name)) continue;
      record_const(global_env_, g->name, *g->init);
    }
  }

  static void record_const(ConstEnv& env, const std::string& name,
                           const Expr& init) {
    if (init.kind == Expr::Kind::kIntLit) {
      env[name] = ConstVal{false, init.int_value, false};
    } else if (init.kind == Expr::Kind::kBoolLit) {
      env[name] = ConstVal{true, 0, init.bool_value};
    }
  }

  /// Replaces `p` (or its largest foldable subexpressions) with literals.
  void fold_expr(ExprPtr& p, const ConstEnv& env) {
    if (!p) return;
    if (p->kind == Expr::Kind::kIntLit || p->kind == Expr::Kind::kBoolLit ||
        p->kind == Expr::Kind::kFloatLit ||
        p->kind == Expr::Kind::kStringLit) {
      return;
    }
    if (auto v = eval_const(*p, env)) {
      auto lit = Expr::make(
          v->is_bool ? Expr::Kind::kBoolLit : Expr::Kind::kIntLit, p->loc);
      lit->int_value = v->i;
      lit->bool_value = v->b;
      lit->type = p->type;  // sema's type survives; verify re-checks anyway
      p = std::move(lit);
      ++stats_.folded_operands;
      return;
    }
    // Addresses must stay addresses: &x and the write side of an index are
    // never folded, but their index/operand subexpressions may be.
    if (p->kind == Expr::Kind::kAddrOf) return;
    for (auto& a : p->args) fold_expr(a, env);
  }

  void fold_function(FnDecl& fn, ConstEnv env) {
    auto saved = std::move(disqualified_);
    disqualified_.clear();
    collect_disqualified_names(*fn.body, disqualified_);
    for (const auto& n : disqualified_) env.erase(n);
    fold_stmt(*fn.body, env);
    disqualified_ = std::move(saved);
  }

  void kill_assigned(const Stmt& subtree, ConstEnv& env) {
    std::unordered_set<std::string> assigned;
    collect_assigned_names(subtree, assigned);
    for (const auto& n : assigned) env.erase(n);
  }

  void fold_stmt(Stmt& stmt, ConstEnv& env) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock: {
        ConstEnv inner = env;  // block scope
        for (auto& s : stmt.stmts) fold_stmt(*s, inner);
        kill_assigned(stmt, env);
        break;
      }
      case Stmt::Kind::kVarDecl:
      case Stmt::Kind::kOmpReductionInit: {
        if (stmt.init && !stmt.init_is_type_hint) fold_expr(stmt.init, env);
        env.erase(stmt.name);
        if (stmt.kind == Stmt::Kind::kVarDecl && stmt.is_const && stmt.init &&
            !stmt.init_is_type_hint && !disqualified_.contains(stmt.name)) {
          record_const(env, stmt.name, *stmt.init);
        }
        break;
      }
      case Stmt::Kind::kAssign:
        fold_expr(stmt.rhs, env);
        if (stmt.lhs && stmt.lhs->kind != Expr::Kind::kVarRef) {
          // fold the subscript of an element store, never the lvalue itself
          for (auto& a : stmt.lhs->args) fold_expr(a, env);
        }
        if (stmt.lhs && stmt.lhs->kind == Expr::Kind::kVarRef) {
          env.erase(stmt.lhs->name);
        }
        break;
      case Stmt::Kind::kExprStmt:
      case Stmt::Kind::kReturn:
        fold_expr(stmt.expr, env);
        break;
      case Stmt::Kind::kIf: {
        fold_expr(stmt.expr, env);
        ConstEnv then_env = env;
        fold_stmt(*stmt.then_block, then_env);
        if (stmt.else_block) {
          ConstEnv else_env = env;
          fold_stmt(*stmt.else_block, else_env);
        }
        kill_assigned(stmt, env);
        break;
      }
      case Stmt::Kind::kWhile: {
        // The condition re-evaluates every iteration: names the loop assigns
        // must leave the environment before anything in the loop folds.
        kill_assigned(stmt, env);
        fold_expr(stmt.expr, env);
        ConstEnv inner = env;
        if (stmt.step) fold_stmt(*stmt.step, inner);
        fold_stmt(*stmt.body, inner);
        break;
      }
      case Stmt::Kind::kForRange: {
        // Bounds are evaluated once, before the first iteration.
        fold_expr(stmt.expr, env);
        fold_expr(stmt.rhs, env);
        kill_assigned(stmt, env);
        ConstEnv inner = env;
        inner.erase(stmt.name);  // loop variable shadows
        fold_stmt(*stmt.body, inner);
        break;
      }
      case Stmt::Kind::kOmpFork:
      case Stmt::Kind::kOmpTask:
      case Stmt::Kind::kOmpTaskloop: {
        fold_expr(stmt.num_threads, env);
        if (stmt.if_clause) {
          fold_expr(stmt.if_clause, env);
          if (stmt.if_clause->kind == Expr::Kind::kBoolLit &&
              stmt.if_clause->bool_value) {
            // if(true) is the absent clause for both parallel and task
            stmt.if_clause.reset();
            ++stats_.folded_operands;
          }
        }
        fold_expr(stmt.final_clause, env);
        fold_expr(stmt.priority, env);
        fold_expr(stmt.grainsize, env);
        fold_expr(stmt.num_tasks, env);
        if (stmt.kind == Stmt::Kind::kOmpTaskloop) {
          fold_expr(stmt.expr, env);
          fold_expr(stmt.rhs, env);
        }
        propagate_into_callee(stmt, env);
        break;
      }
      case Stmt::Kind::kOmpWsLoop: {
        fold_expr(stmt.schedule.chunk, env);
        ConstEnv inner = env;
        fold_stmt(*stmt.body, inner);
        kill_assigned(stmt, env);
        break;
      }
      case Stmt::Kind::kOmpCritical:
      case Stmt::Kind::kOmpSingle:
      case Stmt::Kind::kOmpMaster:
      case Stmt::Kind::kOmpAtomic:
      case Stmt::Kind::kOmpOrdered:
      case Stmt::Kind::kOmpTaskgroup: {
        // Constructs where another thread's sibling work interleaves: only
        // values that are constant across the whole team survive inside,
        // which the ptr-capture disqualification already guarantees; the
        // body is still a serial statement list for this thread.
        ConstEnv inner = env;
        fold_stmt(*stmt.body, inner);
        kill_assigned(stmt, env);
        break;
      }
      default:
        break;
    }
  }

  /// Interprocedural step: captures of known constants become constants
  /// inside the (unique) fork site's outlined body. By-value captures
  /// propagate whenever the caller value is known; shared-ptr captures
  /// propagate too when the name survived disqualification — that only
  /// happens for `const` declarations (sema rejects writes, so the pointee
  /// is immutable for the region's lifetime).
  void propagate_into_callee(Stmt& stmt, const ConstEnv& env) {
    FnDecl* callee = module_.find_function(stmt.callee);
    if (callee == nullptr || !callee->is_outlined || !callee->body) return;
    if (folded_callees_.contains(callee)) return;
    folded_callees_.insert(callee);

    ConstEnv inner = global_env_;
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      const CaptureArg& cap = stmt.captures[i];
      const std::string& param = callee->params[i].name;
      inner.erase(param);  // parameters shadow globals
      if (cap.mode == CaptureMode::kValue ||
          cap.mode == CaptureMode::kSharedPtr) {
        auto it = env.find(cap.name);
        if (it != env.end()) inner[param] = it->second;
      }
    }
    fold_function(*callee, std::move(inner));
  }

  Module& module_;
  PassStats& stats_;
  ConstEnv global_env_;
  std::unordered_set<std::string> disqualified_;
  std::unordered_set<const FnDecl*> folded_callees_;
};

class FoldPass : public Pass {
 public:
  std::string name() const override { return "fold"; }
  bool run(Module& module, lang::Diagnostics&, PassStats& stats) override {
    Folder(module, stats).run();
    return true;
  }
};

// ---------------------------------------------------------------------------
// dce-hoist — dead-clause elimination + loop-invariant capture hoisting
// ---------------------------------------------------------------------------

/// Every name a statement subtree can refer to, collected conservatively
/// (over-collection only keeps a dead capture alive, never the reverse).
void collect_referenced_names(const Stmt& root,
                              std::unordered_set<std::string>& out) {
  walk_stmts(root, [&](const Stmt& s) {
    for_each_stmt_expr(s, [&](const Expr& e) {
      if (e.kind == Expr::Kind::kVarRef) out.insert(e.name);
    });
    switch (s.kind) {
      case Stmt::Kind::kOmpReductionInit:
        out.insert(s.target);
        break;
      case Stmt::Kind::kOmpReductionCombine:
      case Stmt::Kind::kOmpLastprivateWrite:
        out.insert(s.name);
        out.insert(s.target);
        break;
      case Stmt::Kind::kOmpFork:
      case Stmt::Kind::kOmpTask:
      case Stmt::Kind::kOmpTaskloop:
        for (const auto& c : s.captures) out.insert(c.name);
        break;
      case Stmt::Kind::kOmpWsLoop:
        for (const auto& lp : s.lastprivate) {
          out.insert(lp.first);
          out.insert(lp.second);
        }
        for (const auto& d : s.collapse) {
          out.insert(d.lo);
          out.insert(d.extent);
          out.insert(d.stride);
        }
        break;
      default:
        break;
    }
  });
}

class DceHoistPass : public Pass {
 public:
  std::string name() const override { return "dce-hoist"; }

  bool run(Module& module, lang::Diagnostics&, PassStats& stats) override {
    for (auto& fn : module.functions) {
      if (!fn->body) continue;
      walk_stmts(*fn->body, [&](const Stmt& s) {
        // walk_stmts gives const refs; forks are mutated through the module
        if (s.kind == Stmt::Kind::kOmpFork) {
          dce_fork(module, const_cast<Stmt&>(s), stats);
        }
      });
    }
    for (auto& fn : module.functions) {
      if (!fn->body) continue;
      frames_.clear();
      hoist_visit(*fn->body, stats);
    }
    return true;
  }

 private:
  /// Drops captures whose parameter the outlined body never names. Reduction
  /// captures are exempt (their combine always names the target, but the
  /// exemption keeps the rendezvous arity stable even if that ever changes).
  void dce_fork(Module& module, Stmt& fork, PassStats& stats) {
    FnDecl* callee = module.find_function(fork.callee);
    if (callee == nullptr || !callee->is_outlined || !callee->body) return;
    if (callee->params.size() != fork.captures.size()) return;

    std::unordered_set<std::string> used;
    collect_referenced_names(*callee->body, used);

    std::vector<CaptureArg> caps;
    std::vector<Param> params;
    for (std::size_t i = 0; i < fork.captures.size(); ++i) {
      const CaptureArg& c = fork.captures[i];
      const bool keep = c.mode == CaptureMode::kReductionPtr ||
                        used.contains(callee->params[i].name);
      if (keep) {
        caps.push_back(c);
        params.push_back(callee->params[i]);
      } else {
        ++stats.dead_captures;
      }
    }
    if (caps.size() == fork.captures.size()) return;
    fork.captures = std::move(caps);
    callee->params = std::move(params);
  }

  // -- hoisting --------------------------------------------------------------

  struct LoopFrame {
    std::unordered_set<std::string> declared;
  };

  void hoist_visit(Stmt& stmt, PassStats& stats) {
    switch (stmt.kind) {
      case Stmt::Kind::kVarDecl:
        if (!frames_.empty()) frames_.back().declared.insert(stmt.name);
        break;
      case Stmt::Kind::kForRange: {
        frames_.push_back({});
        frames_.back().declared.insert(stmt.name);
        hoist_visit(*stmt.body, stats);
        frames_.pop_back();
        break;
      }
      case Stmt::Kind::kWhile: {
        frames_.push_back({});
        if (stmt.step) hoist_visit(*stmt.step, stats);
        hoist_visit(*stmt.body, stats);
        frames_.pop_back();
        break;
      }
      case Stmt::Kind::kOmpWsLoop: {
        // A worksharing loop is also a per-thread loop, but codegen has no
        // pre-loop emission point for it — hoisting never crosses one.
        auto saved = std::move(frames_);
        frames_.clear();
        hoist_visit(*stmt.body, stats);
        frames_ = std::move(saved);
        break;
      }
      case Stmt::Kind::kOmpFork: {
        if (frames_.empty()) break;
        std::size_t deepest = 0;  // frame count whose scope holds a capture
        for (const auto& c : stmt.captures) {
          for (std::size_t k = frames_.size(); k >= 1; --k) {
            if (frames_[k - 1].declared.contains(c.name)) {
              deepest = std::max(deepest, k);
              break;
            }
          }
        }
        const std::size_t h = frames_.size() - deepest;
        if (h > 0) {
          stmt.hoist_depth = static_cast<int>(h);
          ++stats.hoisted_forks;
        }
        break;
      }
      default: {
        for (auto& s : stmt.stmts) hoist_visit(*s, stats);
        if (stmt.then_block) hoist_visit(*stmt.then_block, stats);
        if (stmt.else_block) hoist_visit(*stmt.else_block, stats);
        if (stmt.step) hoist_visit(*stmt.step, stats);
        if (stmt.body) hoist_visit(*stmt.body, stats);
        break;
      }
    }
  }

  std::vector<LoopFrame> frames_;
};

// ---------------------------------------------------------------------------
// Stage wrappers + verify
// ---------------------------------------------------------------------------

class OmpLowerPass : public Pass {
 public:
  std::string name() const override { return "omp-lower"; }
  bool run(Module& module, lang::Diagnostics& diags,
           PassStats& stats) override {
    return apply_openmp(module, diags, &stats.transform);
  }
};

class SemaPass : public Pass {
 public:
  std::string name() const override { return "sema"; }
  bool run(Module& module, lang::Diagnostics& diags, PassStats&) override {
    return lang::analyze(module, diags);
  }
};

/// Re-runs sema on the optimized module. This is load-bearing, not just a
/// check: folding inserts fresh literal nodes and dce-hoist rebuilds parameter
/// lists, and re-analysis is what re-resolves every Symbol*/FnDecl*/type by
/// name.
/// First-analysis warnings would repeat verbatim, so they go to a scratch
/// sink; an error here can only be a pass bug and is re-reported as such.
class VerifyPass : public Pass {
 public:
  std::string name() const override { return "verify"; }
  bool run(Module& module, lang::Diagnostics& diags, PassStats&) override {
    lang::Diagnostics scratch;
    if (lang::analyze(module, scratch)) return true;
    for (const auto& d : scratch.all()) {
      if (d.severity == lang::Severity::kError) {
        diags.error(d.loc, "internal: optimizer broke the module: " + d.message);
      }
    }
    return false;
  }
};

}  // namespace

void PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p->name());
  return names;
}

bool PassManager::run(lang::Module& module, lang::Diagnostics& diags,
                      PassStats& stats, const DumpHook& hook) const {
  for (const auto& pass : passes_) {
    if (!pass->run(module, diags, stats) || diags.has_errors()) return false;
    if (hook) hook(pass->name(), module);
  }
  return true;
}

std::unique_ptr<Pass> make_omp_lower_pass() {
  return std::make_unique<OmpLowerPass>();
}
std::unique_ptr<Pass> make_sema_pass() { return std::make_unique<SemaPass>(); }
std::unique_ptr<Pass> make_fold_pass() { return std::make_unique<FoldPass>(); }
std::unique_ptr<Pass> make_dce_hoist_pass() {
  return std::make_unique<DceHoistPass>();
}
std::unique_ptr<Pass> make_verify_pass() {
  return std::make_unique<VerifyPass>();
}

void build_default_pipeline(PassManager& pm, int opt_level, bool openmp) {
  if (openmp) pm.add(make_omp_lower_pass());
  pm.add(make_sema_pass());
  if (opt_level >= 1) {
    pm.add(make_fold_pass());
    pm.add(make_dce_hoist_pass());
    pm.add(make_verify_pass());
  }
}

}  // namespace zomp::core
