#include "lang/ast.h"

#include <sstream>

namespace zomp::lang {

const char* scalar_kind_name(ScalarKind kind) {
  switch (kind) {
    case ScalarKind::kVoid: return "void";
    case ScalarKind::kBool: return "bool";
    case ScalarKind::kI64: return "i64";
    case ScalarKind::kF64: return "f64";
  }
  return "<invalid>";
}

std::string Type::to_string() const {
  switch (kind_) {
    case Kind::kInvalid: return "<invalid>";
    case Kind::kInferred: return "<inferred>";
    case Kind::kScalar: return scalar_kind_name(scalar_);
    case Kind::kSlice: return std::string("[]") + scalar_kind_name(scalar_);
    case Kind::kPointer: return std::string("*") + scalar_kind_name(scalar_);
    case Kind::kString: return "<string>";
  }
  return "<invalid>";
}

const char* reduce_op_spelling(ReduceOp op) {
  switch (op) {
    case ReduceOp::kAdd: return "+";
    case ReduceOp::kSub: return "-";
    case ReduceOp::kMul: return "*";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kBitAnd: return "&";
    case ReduceOp::kBitOr: return "|";
    case ReduceOp::kBitXor: return "^";
    case ReduceOp::kLogAnd: return "and";
    case ReduceOp::kLogOr: return "or";
  }
  return "<invalid>";
}

ExprPtr Expr::make(Kind kind, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  return e;
}

StmtPtr Stmt::make(Kind kind, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  return s;
}

Symbol* Module::new_symbol(std::string name, Symbol::Kind kind, Type type,
                           bool is_const) {
  auto sym = std::make_unique<Symbol>();
  sym->name = std::move(name);
  sym->kind = kind;
  sym->type = type;
  sym->is_const = is_const;
  sym->id = static_cast<int>(symbols.size());
  symbols.push_back(std::move(sym));
  return symbols.back().get();
}

FnDecl* Module::find_function(const std::string& fn_name) {
  for (auto& fn : functions) {
    if (fn->name == fn_name) return fn.get();
  }
  return nullptr;
}

const FnDecl* Module::find_function(const std::string& fn_name) const {
  for (const auto& fn : functions) {
    if (fn->name == fn_name) return fn.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// AST dumping (golden-test format)
// ---------------------------------------------------------------------------

namespace {

const char* bin_op_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kRem: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kBitXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
  }
  return "?";
}

const char* builtin_name(Builtin b) {
  switch (b) {
    case Builtin::kSqrt: return "sqrt";
    case Builtin::kAbs: return "abs";
    case Builtin::kExp: return "exp";
    case Builtin::kLog: return "log";
    case Builtin::kPow: return "pow";
    case Builtin::kMin: return "min";
    case Builtin::kMax: return "max";
    case Builtin::kMod: return "mod";
    case Builtin::kFloatFromInt: return "floatFromInt";
    case Builtin::kIntFromFloat: return "intFromFloat";
    case Builtin::kAlloc: return "alloc";
    case Builtin::kFree: return "free";
    case Builtin::kPrint: return "print";
  }
  return "?";
}

const char* capture_mode_name(CaptureMode mode) {
  switch (mode) {
    case CaptureMode::kSharedPtr: return "shared-ptr";
    case CaptureMode::kSharedSlice: return "shared-slice";
    case CaptureMode::kValue: return "value";
    case CaptureMode::kReductionPtr: return "reduction-ptr";
  }
  return "?";
}

/// "[0:len]" for an array-section reduction item, "" for a scalar one.
std::string section_suffix(int section_len) {
  return section_len > 0 ? "[0:" + std::to_string(section_len) + "]" : "";
}

std::string indent_str(int indent) { return std::string(2 * static_cast<std::size_t>(indent), ' '); }

}  // namespace

std::string dump_expr(const Expr& expr) {
  std::ostringstream out;
  switch (expr.kind) {
    case Expr::Kind::kIntLit: out << expr.int_value; break;
    case Expr::Kind::kFloatLit: out << expr.float_value; break;
    case Expr::Kind::kBoolLit: out << (expr.bool_value ? "true" : "false"); break;
    case Expr::Kind::kStringLit: out << '"' << expr.name << '"'; break;
    case Expr::Kind::kUndefined: out << "undefined"; break;
    case Expr::Kind::kVarRef: out << expr.name; break;
    case Expr::Kind::kBinary:
      out << '(' << bin_op_name(expr.bin_op) << ' ' << dump_expr(*expr.args[0])
          << ' ' << dump_expr(*expr.args[1]) << ')';
      break;
    case Expr::Kind::kUnary:
      out << '(' << (expr.un_op == UnOp::kNeg ? "-" : "!") << ' '
          << dump_expr(*expr.args[0]) << ')';
      break;
    case Expr::Kind::kCall: {
      out << "(call " << expr.name;
      for (const auto& a : expr.args) out << ' ' << dump_expr(*a);
      out << ')';
      break;
    }
    case Expr::Kind::kBuiltinCall: {
      out << "(@" << builtin_name(expr.builtin);
      if (expr.builtin == Builtin::kAlloc) out << ' ' << expr.alloc_elem.to_string();
      for (const auto& a : expr.args) out << ' ' << dump_expr(*a);
      out << ')';
      break;
    }
    case Expr::Kind::kIndex:
      out << "(index " << dump_expr(*expr.args[0]) << ' '
          << dump_expr(*expr.args[1]) << ')';
      break;
    case Expr::Kind::kLen:
      out << "(len " << dump_expr(*expr.args[0]) << ')';
      break;
    case Expr::Kind::kAddrOf:
      out << "(& " << dump_expr(*expr.args[0]) << ')';
      break;
    case Expr::Kind::kDeref:
      out << "(deref " << dump_expr(*expr.args[0]) << ')';
      break;
  }
  return out.str();
}

std::string dump_stmt(const Stmt& stmt, int indent) {
  std::ostringstream out;
  const std::string pad = indent_str(indent);
  switch (stmt.kind) {
    case Stmt::Kind::kBlock:
      out << pad << "(block\n";
      for (const auto& s : stmt.stmts) out << dump_stmt(*s, indent + 1);
      out << pad << ")\n";
      break;
    case Stmt::Kind::kVarDecl:
      out << pad << '(' << (stmt.is_const ? "const" : "var") << ' ' << stmt.name;
      if (stmt.has_declared_type) out << " : " << stmt.declared_type.to_string();
      out << " = " << (stmt.init ? dump_expr(*stmt.init) : "undefined") << ")\n";
      break;
    case Stmt::Kind::kAssign: {
      const char* op = stmt.assign_op == Stmt::AssignOp::kPlain ? "="
                       : stmt.assign_op == Stmt::AssignOp::kAdd ? "+="
                       : stmt.assign_op == Stmt::AssignOp::kSub ? "-="
                       : stmt.assign_op == Stmt::AssignOp::kMul ? "*="
                                                                : "/=";
      out << pad << "(assign " << op << ' ' << dump_expr(*stmt.lhs) << ' '
          << dump_expr(*stmt.rhs) << ")\n";
      break;
    }
    case Stmt::Kind::kExprStmt:
      out << pad << "(expr " << dump_expr(*stmt.expr) << ")\n";
      break;
    case Stmt::Kind::kIf:
      out << pad << "(if " << dump_expr(*stmt.expr) << '\n';
      out << dump_stmt(*stmt.then_block, indent + 1);
      if (stmt.else_block) out << dump_stmt(*stmt.else_block, indent + 1);
      out << pad << ")\n";
      break;
    case Stmt::Kind::kWhile:
      out << pad << "(while " << dump_expr(*stmt.expr) << '\n';
      if (stmt.step) out << dump_stmt(*stmt.step, indent + 1);
      out << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    case Stmt::Kind::kForRange:
      out << pad << "(for " << stmt.name << " in " << dump_expr(*stmt.expr)
          << " .. " << dump_expr(*stmt.rhs) << '\n'
          << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    case Stmt::Kind::kReturn:
      out << pad << "(return" << (stmt.expr ? ' ' + dump_expr(*stmt.expr) : std::string())
          << ")\n";
      break;
    case Stmt::Kind::kBreak: out << pad << "(break)\n"; break;
    case Stmt::Kind::kContinue: out << pad << "(continue)\n"; break;
    case Stmt::Kind::kOmpFork: {
      out << pad << "(omp-fork " << stmt.callee;
      if (stmt.num_threads) out << " num_threads=" << dump_expr(*stmt.num_threads);
      if (stmt.if_clause) out << " if=" << dump_expr(*stmt.if_clause);
      if (stmt.proc_bind >= 0) {
        static const char* const names[] = {"false", "true", "primary",
                                            "close", "spread"};
        out << " proc_bind="
            << (stmt.proc_bind <= 4 ? names[stmt.proc_bind] : "?");
      }
      for (const auto& c : stmt.captures) {
        out << " [" << c.name << section_suffix(c.section_len) << ' '
            << capture_mode_name(c.mode);
        if (c.mode == CaptureMode::kReductionPtr) {
          out << ' ' << reduce_op_spelling(c.reduce_op);
        }
        out << ']';
      }
      out << ")\n";
      break;
    }
    case Stmt::Kind::kOmpWsLoop: {
      out << pad << "(omp-for";
      switch (stmt.schedule.kind) {
        case ScheduleSpec::Kind::kUnspecified: break;
        case ScheduleSpec::Kind::kStatic: out << " schedule=static"; break;
        case ScheduleSpec::Kind::kDynamic: out << " schedule=dynamic"; break;
        case ScheduleSpec::Kind::kGuided: out << " schedule=guided"; break;
        case ScheduleSpec::Kind::kAuto: out << " schedule=auto"; break;
        case ScheduleSpec::Kind::kRuntime: out << " schedule=runtime"; break;
      }
      if (stmt.schedule.chunk) out << " chunk=" << dump_expr(*stmt.schedule.chunk);
      if (!stmt.collapse.empty()) {
        out << " collapse=" << stmt.collapse.size() << '[';
        for (std::size_t i = 0; i < stmt.collapse.size(); ++i) {
          if (i > 0) out << ' ';
          out << stmt.collapse[i].iv;
        }
        out << ']';
      }
      if (stmt.nowait) out << " nowait";
      if (stmt.ordered) out << " ordered";
      for (const auto& lp : stmt.lastprivate) {
        out << " lastprivate=" << lp.first << "->" << lp.second;
      }
      out << '\n' << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    }
    case Stmt::Kind::kOmpBarrier: out << pad << "(omp-barrier)\n"; break;
    case Stmt::Kind::kOmpCritical:
      out << pad << "(omp-critical \"" << stmt.name << "\"\n"
          << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    case Stmt::Kind::kOmpSingle:
      out << pad << "(omp-single" << (stmt.nowait ? " nowait" : "") << '\n'
          << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    case Stmt::Kind::kOmpMaster:
      out << pad << "(omp-master\n" << dump_stmt(*stmt.body, indent + 1) << pad
          << ")\n";
      break;
    case Stmt::Kind::kOmpAtomic:
      out << pad << "(omp-atomic\n" << dump_stmt(*stmt.body, indent + 1) << pad
          << ")\n";
      break;
    case Stmt::Kind::kOmpOrdered:
      out << pad << "(omp-ordered\n" << dump_stmt(*stmt.body, indent + 1) << pad
          << ")\n";
      break;
    case Stmt::Kind::kOmpReductionInit:
      out << pad << "(omp-red-init " << stmt.name << ' '
          << reduce_op_spelling(stmt.reduce_op) << " from " << stmt.target
          << section_suffix(stmt.section_len) << ")\n";
      break;
    case Stmt::Kind::kOmpReductionCombine:
      out << pad << "(omp-red-combine " << stmt.target
          << section_suffix(stmt.section_len) << ' '
          << reduce_op_spelling(stmt.reduce_op) << ' ' << stmt.name << ")\n";
      break;
    case Stmt::Kind::kOmpLastprivateWrite:
      out << pad << "(omp-lastprivate " << stmt.target << " = " << stmt.name
          << ")\n";
      break;
    case Stmt::Kind::kOmpTask: {
      out << pad << "(omp-task " << stmt.callee;
      for (const auto& c : stmt.captures) {
        out << " [" << c.name << ' ' << capture_mode_name(c.mode) << ']';
      }
      for (const auto& dep : stmt.depends) {
        const char* kind = dep.kind == 1 ? "in" : dep.kind == 2 ? "out" : "inout";
        out << " depend(" << kind << ": " << dump_expr(*dep.item) << ')';
      }
      if (stmt.final_clause) out << " final=" << dump_expr(*stmt.final_clause);
      if (stmt.priority) out << " priority=" << dump_expr(*stmt.priority);
      if (stmt.untied) out << " untied";
      out << ")\n";
      break;
    }
    case Stmt::Kind::kOmpTaskwait: out << pad << "(omp-taskwait)\n"; break;
    case Stmt::Kind::kOmpCancel:
    case Stmt::Kind::kOmpCancellationPoint: {
      const char* construct = stmt.cancel_construct == 1   ? "parallel"
                              : stmt.cancel_construct == 2 ? "for"
                                                           : "taskgroup";
      out << pad
          << (stmt.kind == Stmt::Kind::kOmpCancel ? "(omp-cancel "
                                                  : "(omp-cancellation-point ")
          << construct << ")\n";
      break;
    }
    case Stmt::Kind::kOmpTaskgroup:
      out << pad << "(omp-taskgroup\n"
          << dump_stmt(*stmt.body, indent + 1) << pad << ")\n";
      break;
    case Stmt::Kind::kOmpTaskloop: {
      out << pad << "(omp-taskloop " << stmt.callee << " [" << dump_expr(*stmt.expr)
          << ' ' << dump_expr(*stmt.rhs) << ']';
      if (stmt.grainsize) out << " grainsize=" << dump_expr(*stmt.grainsize);
      if (stmt.num_tasks) out << " num_tasks=" << dump_expr(*stmt.num_tasks);
      for (const auto& c : stmt.captures) {
        out << " [" << c.name << ' ' << capture_mode_name(c.mode) << ']';
      }
      out << ")\n";
      break;
    }
  }
  return out.str();
}

std::string dump_ast(const Module& module) {
  std::ostringstream out;
  out << "(module " << module.name << '\n';
  for (const auto& g : module.globals) out << dump_stmt(*g, 1);
  for (const auto& fn : module.functions) {
    out << "  (" << (fn->is_extern ? "extern-fn" : fn->is_outlined ? "outlined-fn" : "fn")
        << ' ' << fn->name << " (";
    for (std::size_t i = 0; i < fn->params.size(); ++i) {
      if (i > 0) out << ' ';
      out << fn->params[i].name << ':' << fn->params[i].type.to_string();
    }
    out << ") " << fn->return_type.to_string() << '\n';
    if (fn->body) out << dump_stmt(*fn->body, 2);
    out << "  )\n";
  }
  out << ")\n";
  return out.str();
}

}  // namespace zomp::lang
