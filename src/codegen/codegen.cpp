#include "codegen/codegen.h"

#include <sstream>

#include "lang/sema.h"

namespace zomp::codegen {

using lang::BinOp;
using lang::Builtin;
using lang::CaptureMode;
using lang::Expr;
using lang::FnDecl;
using lang::Module;
using lang::ReduceOp;
using lang::ScalarKind;
using lang::ScheduleSpec;
using lang::Stmt;
using lang::Symbol;
using lang::Type;
using lang::UnOp;

std::string cpp_type(const Type& type) {
  switch (type.kind()) {
    case Type::Kind::kScalar:
      switch (type.scalar()) {
        case ScalarKind::kVoid: return "void";
        case ScalarKind::kBool: return "bool";
        case ScalarKind::kI64: return "std::int64_t";
        case ScalarKind::kF64: return "double";
      }
      return "void";
    case Type::Kind::kSlice:
      return std::string("mz::Slice<") + cpp_type(type.element()) + ">";
    case Type::Kind::kPointer:
      return cpp_type(type.element()) + "*";
    default:
      return "/*invalid*/void";
  }
}

namespace {

std::string escape_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

const char* schedule_kind_value(ScheduleSpec::Kind kind) {
  switch (kind) {
    case ScheduleSpec::Kind::kUnspecified:
    case ScheduleSpec::Kind::kStatic: return "0";
    case ScheduleSpec::Kind::kDynamic: return "1";
    case ScheduleSpec::Kind::kGuided: return "2";
    case ScheduleSpec::Kind::kAuto: return "3";
    case ScheduleSpec::Kind::kRuntime: return "4";
  }
  return "0";
}

bool stmt_contains_omp(const Stmt& stmt) {
  switch (stmt.kind) {
    case Stmt::Kind::kOmpFork:
    case Stmt::Kind::kOmpWsLoop:
    case Stmt::Kind::kOmpBarrier:
    case Stmt::Kind::kOmpCritical:
    case Stmt::Kind::kOmpSingle:
    case Stmt::Kind::kOmpMaster:
    case Stmt::Kind::kOmpAtomic:
    case Stmt::Kind::kOmpOrdered:
    case Stmt::Kind::kOmpReductionInit:
    case Stmt::Kind::kOmpReductionCombine:
    case Stmt::Kind::kOmpLastprivateWrite:
    case Stmt::Kind::kOmpTask:
    case Stmt::Kind::kOmpTaskwait:
    case Stmt::Kind::kOmpTaskgroup:
    case Stmt::Kind::kOmpTaskloop:
    case Stmt::Kind::kOmpCancel:
    case Stmt::Kind::kOmpCancellationPoint:
      return true;
    default:
      break;
  }
  for (const auto& s : stmt.stmts) {
    if (stmt_contains_omp(*s)) return true;
  }
  for (const Stmt* child : {stmt.then_block.get(), stmt.else_block.get(),
                            stmt.step.get(), stmt.body.get()}) {
    if (child != nullptr && stmt_contains_omp(*child)) return true;
  }
  return false;
}

/// Does this subtree contain a `cancel for` / `cancellation point for` that
/// binds to the ws-loop about to be emitted? Recursion stops at nested
/// kOmpWsLoop nodes — a cancel inside one binds there, not here — so the
/// enclosing loop only materialises its escape label when a goto will
/// actually target it (keeps -Wunused-label quiet).
bool subtree_has_cancel_for(const Stmt& stmt) {
  if ((stmt.kind == Stmt::Kind::kOmpCancel ||
       stmt.kind == Stmt::Kind::kOmpCancellationPoint) &&
      stmt.cancel_construct == 2) {
    return true;
  }
  if (stmt.kind == Stmt::Kind::kOmpWsLoop) return false;
  for (const auto& s : stmt.stmts) {
    if (subtree_has_cancel_for(*s)) return true;
  }
  for (const Stmt* child : {stmt.then_block.get(), stmt.else_block.get(),
                            stmt.step.get(), stmt.body.get()}) {
    if (child != nullptr && subtree_has_cancel_for(*child)) return true;
  }
  return false;
}

class Emitter {
 public:
  Emitter(const Module& module, const CodegenOptions& options)
      : module_(module), options_(options), ns_("mzgen_" + module.name) {}

  std::string emit() {
    out_ << "// Generated by mzc from module '" << module_.name << "'.\n";
    out_ << "// MiniZig -> C++ lowering targeting the zomp runtime ABI.\n";
    if (options_.safety_checks) out_ << "#define ZOMP_MZ_SAFE 1\n";
    out_ << "#include <cstdint>\n#include <limits>\n";
    out_ << "#include \"codegen/mz_support.h\"\n";
    out_ << "#include \"runtime/abi.h\"\n\n";

    // Extern declarations (C linkage — the paper's Fortran-interop route).
    bool have_extern = false;
    for (const auto& fn : module_.functions) {
      if (!fn->is_extern) continue;
      if (!have_extern) {
        out_ << "extern \"C\" {\n";
        have_extern = true;
      }
      out_ << "  " << cpp_type(fn->return_type) << ' ' << fn->name << '(';
      emit_param_list(*fn, /*with_names=*/false);
      out_ << ");\n";
    }
    if (have_extern) out_ << "}\n\n";

    out_ << "namespace " << ns_ << " {\n\n";

    for (const auto& g : module_.globals) emit_global(*g);
    if (!module_.globals.empty()) out_ << '\n';

    // Forward declarations (mutual recursion, fork-before-definition).
    for (const auto& fn : module_.functions) {
      if (fn->is_extern) continue;
      emit_signature(*fn);
      out_ << ";\n";
      if (fn->is_outlined) {
        out_ << "static void " << fn->name
             << "_mt(std::int32_t, std::int32_t, void**);\n";
      }
    }
    out_ << '\n';

    for (const auto& fn : module_.functions) {
      if (fn->is_extern) continue;
      emit_function(*fn);
    }

    out_ << "}  // namespace " << ns_ << "\n";

    if (options_.emit_main) {
      const FnDecl* main_fn = module_.find_function("main");
      if (main_fn != nullptr && !main_fn->is_extern) {
        out_ << "\nint main() {\n  " << ns_ << "::main();\n  return 0;\n}\n";
      }
    }
    return out_.str();
  }

  std::string emit_header_text() {
    out_ << "// Generated by mzc from module '" << module_.name
         << "' (public declarations).\n#pragma once\n";
    out_ << "#include <cstdint>\n#include \"codegen/mz_support.h\"\n\n";
    out_ << "namespace " << ns_ << " {\n";
    for (const auto& fn : module_.functions) {
      if (fn->is_extern || fn->is_outlined || !fn->is_pub) continue;
      out_ << cpp_type(fn->return_type) << ' ' << fn->name << '(';
      for (std::size_t i = 0; i < fn->params.size(); ++i) {
        if (i > 0) out_ << ", ";
        out_ << cpp_type(fn->params[i].type) << ' ' << fn->params[i].name;
      }
    out_ << ");\n";
    }
    out_ << "}  // namespace " << ns_ << "\n";
    return out_.str();
  }

 private:
  // -- Naming -------------------------------------------------------------------

  std::string var_name(const Symbol* sym) {
    if (sym == nullptr) return "/*unresolved*/";
    return sym->name + "_" + std::to_string(sym->id);
  }

  std::string fresh(const char* base) {
    return std::string("__") + base + "_" + std::to_string(temp_counter_++);
  }

  std::string loc_ident(const Stmt& stmt, const char* construct) {
    const std::string name = fresh("loc");
    line() << "static constexpr zomp_ident_t " << name << " = {\""
           << module_.name << ".mz\", \"" << construct << "\", "
           << stmt.loc.line << "};";
    return name;
  }

  // -- Output helpers ---------------------------------------------------------

  std::ostream& line() {
    out_ << std::string(2 * static_cast<std::size_t>(indent_), ' ');
    return out_;
  }
  void open() { ++indent_; }
  void close() { --indent_; }

  // -- Globals / functions ------------------------------------------------------

  void emit_global(const Stmt& g) {
    out_ << (g.is_const ? "const " : "") << cpp_type(g.symbol->type) << ' '
         << var_name(g.symbol) << " = " << (g.init ? expr(*g.init) : "{}")
         << ";\n";
  }

  void emit_param_list(const FnDecl& fn, bool with_names) {
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      if (i > 0) out_ << ", ";
      const auto& p = fn.params[i];
      out_ << cpp_type(p.type) << (p.indirect ? "&" : "");
      if (with_names) out_ << ' ' << var_name(p.symbol);
    }
  }

  void emit_signature(const FnDecl& fn) {
    if (fn.is_outlined) {
      out_ << "static void " << fn.name
           << "(std::int32_t __gtid, std::int32_t __tid";
      for (const auto& p : fn.params) {
        out_ << ", " << cpp_type(p.type) << (p.indirect ? "&" : "") << ' '
             << var_name(p.symbol);
      }
      out_ << ')';
      return;
    }
    // `pub` functions get external linkage so benches/examples can call them.
    out_ << (fn.is_pub ? "" : "static ") << cpp_type(fn.return_type) << ' '
         << fn.name << '(';
    emit_param_list(fn, /*with_names=*/true);
    out_ << ')';
  }

  void emit_function(const FnDecl& fn) {
    emit_signature(fn);
    out_ << " {\n";
    indent_ = 1;
    current_fn_outlined_ = fn.is_outlined;
    if (fn.is_outlined) {
      line() << "(void)__gtid; (void)__tid;";
      out_ << '\n';
    } else if (fn.body && stmt_contains_omp(*fn.body)) {
      line() << "const std::int32_t __gtid = zomp_get_thread_num(); "
                "(void)__gtid;";
      out_ << '\n';
    }
    if (fn.body) {
      emit_stmt_list(fn.body->stmts);
    }
    indent_ = 0;
    out_ << "}\n\n";

    if (fn.is_outlined) emit_microtask_wrapper(fn);
  }

  /// The void** trampoline the runtime invokes — unpacks the argument array
  /// built at the fork site (paper: "passing pointers to these functions,
  /// and pointers to variables used in these functions").
  void emit_microtask_wrapper(const FnDecl& fn) {
    out_ << "static void " << fn.name
         << "_mt(std::int32_t __gtid, std::int32_t __tid, void** __args) {\n";
    out_ << "  (void)__args;\n";
    out_ << "  " << fn.name << "(__gtid, __tid";
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      out_ << ",\n      *static_cast<" << cpp_type(fn.params[i].type)
           << "*>(__args[" << i << "])";
    }
    out_ << ");\n}\n\n";
  }

  // -- Statements ------------------------------------------------------------------

  /// Emits a statement list, folding each run of adjacent reduction combines
  /// (Stmt::red_pack, set by the directive engine) into ONE packed
  /// zomp_reduce rendezvous; a single-variable reduction is a run of one.
  void emit_stmt_list(const std::vector<lang::StmtPtr>& stmts) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      const Stmt& s = *stmts[i];
      const auto k = static_cast<std::size_t>(s.red_pack);
      if (s.kind == Stmt::Kind::kOmpReductionCombine && k >= 1 &&
          i + k <= stmts.size()) {
        std::vector<const Stmt*> run;
        for (std::size_t j = i; j < i + k; ++j) run.push_back(stmts[j].get());
        emit_reduce_pack(run);
        i += k - 1;
        continue;
      }
      emit_stmt(s);
    }
  }

  void emit_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        line() << "{";
        out_ << '\n';
        open();
        emit_stmt_list(stmt.stmts);
        close();
        line() << "}";
        out_ << '\n';
        break;
      case Stmt::Kind::kVarDecl:
        line() << (stmt.is_const ? "const " : "") << cpp_type(stmt.symbol->type)
               << ' ' << var_name(stmt.symbol) << " = "
               << (stmt.init && !stmt.init_is_type_hint ? expr(*stmt.init)
                                                        : "{}")
               << ";";
        out_ << '\n';
        break;
      case Stmt::Kind::kAssign:
        line() << expr(*stmt.lhs) << ' ' << assign_op_text(stmt.assign_op)
               << ' ' << expr(*stmt.rhs) << ';';
        out_ << '\n';
        break;
      case Stmt::Kind::kExprStmt:
        line() << expr(*stmt.expr) << ';';
        out_ << '\n';
        break;
      case Stmt::Kind::kIf:
        line() << "if (" << expr(*stmt.expr) << ") {";
        out_ << '\n';
        open();
        emit_stmt_list(stmt.then_block->stmts);
        close();
        if (stmt.else_block) {
          line() << "} else {";
          out_ << '\n';
          open();
          if (stmt.else_block->kind == Stmt::Kind::kBlock) {
            emit_stmt_list(stmt.else_block->stmts);
          } else {
            emit_stmt(*stmt.else_block);  // else-if chain
          }
          close();
        }
        line() << "}";
        out_ << '\n';
        break;
      case Stmt::Kind::kWhile: {
        // The continue expression must run on `continue`, so it becomes the
        // for-statement's iteration expression.
        std::string step_text;
        if (stmt.step) {
          if (stmt.step->kind == Stmt::Kind::kAssign) {
            step_text = expr(*stmt.step->lhs) + " " +
                        assign_op_text(stmt.step->assign_op) + " " +
                        expr(*stmt.step->rhs);
          } else if (stmt.step->kind == Stmt::Kind::kExprStmt) {
            step_text = expr(*stmt.step->expr);
          }
        }
        line() << "for (; " << expr(*stmt.expr) << "; " << step_text << ") {";
        out_ << '\n';
        open();
        emit_stmt_list(stmt.body->stmts);
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kForRange: {
        const std::string lo = fresh("flo");
        const std::string hi = fresh("fhi");
        line() << "{";
        out_ << '\n';
        open();
        line() << "const std::int64_t " << lo << " = " << expr(*stmt.expr)
               << ", " << hi << " = " << expr(*stmt.rhs) << ";";
        out_ << '\n';
        const std::string iv = var_name(stmt.symbol);
        line() << "for (std::int64_t " << iv << " = " << lo << "; " << iv
               << " < " << hi << "; ++" << iv << ") {";
        out_ << '\n';
        open();
        emit_stmt_list(stmt.body->stmts);
        close();
        line() << "}";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kReturn:
        if (stmt.expr) {
          line() << "return " << expr(*stmt.expr) << ';';
        } else {
          line() << "return;";
        }
        out_ << '\n';
        break;
      case Stmt::Kind::kBreak:
        line() << "break;";
        out_ << '\n';
        break;
      case Stmt::Kind::kContinue:
        line() << "continue;";
        out_ << '\n';
        break;

      case Stmt::Kind::kOmpFork: emit_fork(stmt); break;
      case Stmt::Kind::kOmpWsLoop: emit_ws_loop(stmt); break;
      case Stmt::Kind::kOmpBarrier: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "barrier");
        out_ << '\n';
        emit_barrier_call(loc);
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpCancel:
      case Stmt::Kind::kOmpCancellationPoint:
        emit_cancel(stmt);
        break;
      case Stmt::Kind::kOmpCritical: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "critical");
        out_ << '\n';
        line() << "zomp_critical(&" << loc << ", __gtid, "
               << escape_string(stmt.name) << ");";
        out_ << '\n';
        emit_stmt(*stmt.body);
        line() << "zomp_end_critical(&" << loc << ", __gtid, "
               << escape_string(stmt.name) << ");";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpSingle: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "single");
        out_ << '\n';
        line() << "if (zomp_single(&" << loc << ", __gtid)) {";
        out_ << '\n';
        open();
        emit_stmt(*stmt.body);
        line() << "zomp_end_single(&" << loc << ", __gtid);";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        if (!stmt.nowait) {
          emit_barrier_call(loc);
        }
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpMaster: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "master");
        out_ << '\n';
        line() << "if (zomp_master(&" << loc << ", __gtid)) {";
        out_ << '\n';
        open();
        emit_stmt(*stmt.body);
        close();
        line() << "}";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpAtomic: emit_atomic(stmt); break;
      case Stmt::Kind::kOmpOrdered: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "ordered");
        out_ << '\n';
        const std::string index = ordered_index_;
        line() << "zomp_ordered(&" << loc << ", __gtid, " << index << ");";
        out_ << '\n';
        emit_stmt(*stmt.body);
        line() << "zomp_end_ordered(&" << loc << ", __gtid, " << index << ");";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpReductionInit:
        if (stmt.section_len > 0) {
          emit_section_init(stmt);
          break;
        }
        line() << cpp_type(stmt.symbol->type) << ' ' << var_name(stmt.symbol)
               << " = " << identity_text(stmt.reduce_op, stmt.symbol->type)
               << ';';
        out_ << '\n';
        break;
      case Stmt::Kind::kOmpReductionCombine:
        // Runs are packed by emit_stmt_list; a combine outside one is a
        // pack of one, so every reduction takes the same lowering.
        emit_reduce_pack({&stmt});
        break;
      case Stmt::Kind::kOmpLastprivateWrite:
        line() << var_name(stmt.target_symbol) << " = "
               << var_name(stmt.symbol) << ';';
        out_ << '\n';
        break;
      case Stmt::Kind::kOmpTask: emit_task(stmt); break;
      case Stmt::Kind::kOmpTaskwait: {
        line() << "{";
        out_ << '\n';
        open();
        const std::string loc = loc_ident(stmt, "taskwait");
        out_ << '\n';
        line() << "zomp_taskwait(&" << loc << ", __gtid);";
        out_ << '\n';
        close();
        line() << "}";
        out_ << '\n';
        break;
      }
      case Stmt::Kind::kOmpTaskgroup: emit_taskgroup(stmt); break;
      case Stmt::Kind::kOmpTaskloop: emit_taskloop(stmt); break;
    }
  }

  /// A barrier that honours `cancel parallel`: zomp_barrier returns 1 when
  /// the episode was abandoned, and an outlined region body reacts by
  /// returning straight to the (non-cancellable) region join. Outside
  /// outlined functions there is no region frame to leave — the serial
  /// team's barrier is a no-op anyway — so the result is dropped.
  void emit_barrier_call(const std::string& loc) {
    if (current_fn_outlined_) {
      line() << "if (zomp_barrier(&" << loc << ", __gtid)) return;";
    } else {
      line() << "zomp_barrier(&" << loc << ", __gtid);";
    }
    out_ << '\n';
  }

  void emit_cancel(const Stmt& stmt) {
    const bool point = stmt.kind == Stmt::Kind::kOmpCancellationPoint;
    const char* fn = point ? "zomp_cancellation_point" : "zomp_cancel";
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc =
        loc_ident(stmt, point ? "cancellation point" : "cancel");
    out_ << '\n';
    if (stmt.cancel_construct == 2 && !cancel_for_label_.empty()) {
      // Loop cancellation, closely nested: jump to the escape label the
      // enclosing ws-loop emission planted before its closing barrier (the
      // label detaches any dispatch-ring slot; the barrier then clears the
      // loop flag team-wide).
      line() << "if (" << fn << "(&" << loc << ", __gtid, ZOMP_CANCEL_LOOP)) "
             << "goto " << cancel_for_label_ << ";";
    } else if (stmt.cancel_construct == 2) {
      // Orphaned loop cancel: no statically enclosing ws-loop to escape.
      // Activating the flag still drains dynamic dispatch and trips the
      // other members' cancellation points; this thread finishes its chunk.
      line() << "(void)" << fn << "(&" << loc << ", __gtid, ZOMP_CANCEL_LOOP);";
    } else {
      const char* construct = stmt.cancel_construct == 4
                                  ? "ZOMP_CANCEL_TASKGROUP"
                                  : "ZOMP_CANCEL_PARALLEL";
      if (current_fn_outlined_) {
        // Cancelled parallel members return to the region join; cancelled
        // taskgroup tasks return to their task's end. Either way the frame
        // being left is this outlined function. A dispatch slot held across
        // the return would leak its ring entry — break it first (no-op when
        // the thread is not mid-dispatch).
        line() << "if (" << fn << "(&" << loc << ", __gtid, " << construct
               << ")) { zomp_dispatch_break(&" << loc
               << ", __gtid); return; }";
      } else {
        // Orphaned (serial/implicit region): set the flag, no frame to leave.
        line() << "(void)" << fn << "(&" << loc << ", __gtid, " << construct
               << ");";
      }
    }
    out_ << '\n';
    close();
    line() << "}";
    out_ << '\n';
  }

  void emit_fork(const Stmt& stmt) {
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(stmt, "parallel");
    out_ << '\n';
    const std::string args = fresh("args");
    line() << "void* " << args << "["
           << std::max<std::size_t>(1, stmt.captures.size()) << "] = {";
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      if (i > 0) out_ << ", ";
      out_ << "(void*)&" << var_name(stmt.captures[i].symbol);
    }
    if (stmt.captures.empty()) out_ << "nullptr";
    out_ << "};\n";
    if (stmt.num_threads) {
      line() << "zomp_push_num_threads(&" << loc
             << ", (std::int32_t)(" << expr(*stmt.num_threads) << "));";
      out_ << '\n';
    }
    if (stmt.proc_bind >= 0) {
      // One-shot clause push consumed by the fork (mirrors num_threads);
      // the value is already the BindKind / omp_proc_bind_t constant.
      line() << "zomp_push_proc_bind(&" << loc << ", " << stmt.proc_bind
             << ");";
      out_ << '\n';
    }
    if (stmt.if_clause) {
      line() << "zomp_fork_call_if(&" << loc << ", &" << stmt.callee_decl->name
             << "_mt, " << stmt.captures.size() << ", " << args << ", ("
             << expr(*stmt.if_clause) << ") ? 1 : 0);";
    } else {
      line() << "zomp_fork_call(&" << loc << ", &" << stmt.callee_decl->name
             << "_mt, " << stmt.captures.size() << ", " << args << ");";
    }
    out_ << '\n';
    close();
    line() << "}";
    out_ << '\n';
  }

  /// Seeds the original induction variables of a collapsed nest from the
  /// linearized chunk-entry index `flat`: iv_k = lo_k + (flat / stride_k) %
  /// extent_k (the modulo is redundant for the outermost dimension). The
  /// divisors are positive whenever any iteration runs: a zero extent
  /// anywhere empties the linearized space before any division executes.
  /// The div/mod chain runs ONCE per chunk; inside the chunk the odometer
  /// of odometer_text() advances the ivs, so per-iteration cost is an
  /// increment + compare instead of a division chain per dimension.
  void emit_collapse_seed(const Stmt& stmt, const std::string& flat) {
    for (std::size_t k = 0; k < stmt.collapse.size(); ++k) {
      const auto& dim = stmt.collapse[k];
      line() << "std::int64_t " << var_name(dim.iv_symbol) << " = "
             << var_name(dim.lo_symbol) << " + ((" << flat << " / "
             << var_name(dim.stride_symbol) << ')';
      if (k > 0) out_ << " % " << var_name(dim.extent_symbol);
      out_ << ");";
      out_ << '\n';
    }
  }

  /// The odometer advance for a collapsed nest, as a single expression for
  /// the flat loop's iteration clause (so `continue` in the body cannot
  /// skip it): increment the innermost iv; on overflow reset it to its
  /// lower bound and carry outward. The outermost dimension never wraps.
  std::string odometer_text(const Stmt& stmt) {
    const auto& dims = stmt.collapse;
    std::string adv = "(void)++" + var_name(dims[0].iv_symbol);
    for (std::size_t k = 1; k < dims.size(); ++k) {
      const std::string iv = var_name(dims[k].iv_symbol);
      const std::string wrap = var_name(dims[k].lo_symbol) + " + " +
                               var_name(dims[k].extent_symbol);
      adv = "(++" + iv + " != " + wrap + " ? (void)0 : (" + iv + " = " +
            var_name(dims[k].lo_symbol) + ", " + adv + "))";
    }
    return adv;
  }

  void emit_ws_loop(const Stmt& stmt) {
    const Stmt& loop = *stmt.body;  // kForRange, validated by sema
    const bool needs_dispatch =
        stmt.ordered ||
        stmt.schedule.kind == ScheduleSpec::Kind::kDynamic ||
        stmt.schedule.kind == ScheduleSpec::Kind::kGuided ||
        stmt.schedule.kind == ScheduleSpec::Kind::kRuntime;

    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(stmt, "for");
    out_ << '\n';
    const std::string lo = fresh("wslo");
    const std::string hi = fresh("wshi");
    line() << "const std::int64_t " << lo << " = " << expr(*loop.expr) << ", "
           << hi << " = " << expr(*loop.rhs) << ";";
    out_ << '\n';
    const std::string chunk =
        stmt.schedule.chunk ? "(std::int64_t)(" + expr(*stmt.schedule.chunk) + ")"
                            : "0";
    const std::string iv = var_name(loop.symbol);

    const std::string saved_ordered = ordered_index_;
    ordered_index_ = "(" + iv + " - " + lo + ")";

    // `cancel for` escape: body-level cancels goto this label, planted after
    // the scheduling loops and before the closing barrier, so a cancelling
    // thread still detaches its dispatch slot / runs static fini / arrives
    // at the barrier that clears the team-wide loop flag.
    const std::string saved_cancel_label = cancel_for_label_;
    cancel_for_label_ =
        subtree_has_cancel_for(*loop.body) ? fresh("cancel_for") : "";

    const std::string had_last = fresh("hadlast");
    const bool track_last = !stmt.lastprivate.empty();
    if (track_last) {
      line() << "std::int32_t " << had_last << " = 0;";
      out_ << '\n';
    }

    if (needs_dispatch) {
      line() << "zomp_dispatch_init(&" << loc << ", __gtid, "
             << schedule_kind_value(stmt.schedule.kind) << ", " << chunk
             << ", " << lo << ", " << hi << ", 1);";
      out_ << '\n';
      const std::string clo = fresh("clo");
      const std::string chi = fresh("chi");
      const std::string clast = fresh("clast");
      line() << "std::int64_t " << clo << " = 0, " << chi << " = 0; "
             << "std::int32_t " << clast << " = 0;";
      out_ << '\n';
      line() << "while (zomp_dispatch_next(&" << loc << ", __gtid, &" << clo
             << ", &" << chi << ", &" << clast << ")) {";
      out_ << '\n';
      open();
      // The loop condition reads a const copy: the runtime holds &chi, so
      // any i64 store in the body would otherwise force a reload of it.
      const std::string cend = fresh("cend");
      line() << "const std::int64_t " << cend << " = " << chi << ";";
      out_ << '\n';
      emit_collapse_seed(stmt, clo);
      line() << "for (std::int64_t " << iv << " = " << clo << "; " << iv
             << " < " << cend << "; ++" << iv;
      if (!stmt.collapse.empty()) out_ << ", " << odometer_text(stmt);
      out_ << ") {";
      out_ << '\n';
      open();
      emit_stmt_list(loop.body->stmts);
      close();
      line() << "}";
      out_ << '\n';
      if (track_last) {
        line() << "if (" << clast << ") " << had_last << " = 1;";
        out_ << '\n';
      }
      close();
      line() << "}";
      out_ << '\n';
      if (!cancel_for_label_.empty()) {
        // Normal exhaustion already detached the slot; the goto path still
        // holds it. zomp_dispatch_break is a no-op when unbound.
        line() << cancel_for_label_ << ": zomp_dispatch_break(&" << loc
               << ", __gtid);";
        out_ << '\n';
      }
    } else {
      const std::string mylo = fresh("mylo");
      const std::string myhi = fresh("myhi");
      const std::string stride = fresh("stride");
      const std::string last = fresh("last");
      line() << "std::int64_t " << mylo << " = 0, " << myhi << " = 0, "
             << stride << " = 0; std::int32_t " << last << " = 0;";
      out_ << '\n';
      line() << "zomp_for_static_init(&" << loc << ", __gtid, " << chunk
             << ", " << lo << ", " << hi << ", 1, &" << mylo << ", &" << myhi
             << ", &" << stride << ", &" << last << ");";
      out_ << '\n';
      const std::string span = fresh("span");
      line() << "const std::int64_t " << span << " = " << myhi << " - " << mylo
             << ";";
      out_ << '\n';
      const std::string blk = fresh("blk");
      line() << "for (std::int64_t " << blk << " = " << mylo << "; " << blk
             << " < " << hi << "; " << blk << " += " << stride << ") {";
      out_ << '\n';
      open();
      const std::string end = fresh("end");
      line() << "const std::int64_t " << end << " = (" << blk << " + " << span
             << " < " << hi << ") ? " << blk << " + " << span << " : " << hi
             << ";";
      out_ << '\n';
      emit_collapse_seed(stmt, blk);
      line() << "for (std::int64_t " << iv << " = " << blk << "; " << iv
             << " < " << end << "; ++" << iv;
      if (!stmt.collapse.empty()) out_ << ", " << odometer_text(stmt);
      out_ << ") {";
      out_ << '\n';
      open();
      emit_stmt_list(loop.body->stmts);
      close();
      line() << "}";
      out_ << '\n';
      close();
      line() << "}";
      out_ << '\n';
      if (!cancel_for_label_.empty()) {
        // Before the fini call: the cancelling thread must still retire its
        // static-loop bookkeeping.
        line() << cancel_for_label_ << ": ;";
        out_ << '\n';
      }
      line() << "zomp_for_static_fini(&" << loc << ", __gtid);";
      out_ << '\n';
      if (track_last) {
        line() << "if (" << last << ") " << had_last << " = 1;";
        out_ << '\n';
      }
    }

    ordered_index_ = saved_ordered;
    cancel_for_label_ = saved_cancel_label;

    if (track_last) {
      line() << "if (" << had_last << ") {";
      out_ << '\n';
      open();
      for (const auto& [local, target] : stmt.lastprivate_syms) {
        line() << var_name(target) << " = " << var_name(local) << ';';
        out_ << '\n';
      }
      close();
      line() << "}";
      out_ << '\n';
    }
    if (!stmt.nowait) {
      emit_barrier_call(loc);
    }
    close();
    line() << "}";
    out_ << '\n';
  }

  void emit_atomic(const Stmt& stmt) {
    const Stmt& assign = *stmt.body;
    const Type type = assign.lhs->type;
    const char* op = nullptr;
    switch (assign.assign_op) {
      case Stmt::AssignOp::kAdd: op = "add"; break;
      case Stmt::AssignOp::kSub: op = "sub"; break;
      case Stmt::AssignOp::kMul: op = "mul"; break;
      case Stmt::AssignOp::kDiv: op = "div"; break;
      case Stmt::AssignOp::kPlain: op = "add"; break;  // rejected by sema
    }
    const char* suffix = type.is_f64() ? "f64" : "i64";
    line() << "zomp_atomic_" << op << '_' << suffix << "(&("
           << expr(*assign.lhs) << "), " << expr(*assign.rhs) << ");";
    out_ << '\n';
  }

  /// Emits the firstprivate/shared capture pack struct + initialiser for a
  /// task-family construct. Firstprivate captures ride by value, shared
  /// scalars as pointers into the enclosing frame (the region's join barrier
  /// keeps them alive past the task). The runtime memcpy's the pack, so it
  /// must stay trivially copyable — scalars, pointers, and slice headers are.
  void emit_task_pack(const Stmt& stmt, const FnDecl& callee,
                      const std::string& pack) {
    line() << "struct " << pack << "_t {";
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      const auto& p = callee.params[i];
      out_ << ' ' << cpp_type(p.type) << (p.indirect ? "*" : "") << " a" << i
           << ';';
    }
    out_ << " };\n";
    line() << pack << "_t " << pack << "{";
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      if (i > 0) out_ << ", ";
      if (callee.params[i].indirect) out_ << '&';
      out_ << var_name(stmt.captures[i].symbol);
    }
    out_ << "};\n";
  }

  void emit_task(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(stmt, "task");
    out_ << '\n';
    const std::string pack = fresh("taskargs");
    emit_task_pack(stmt, callee, pack);
    const std::string thunk = fresh("taskfn");
    line() << "struct " << thunk << "_s { static void run(void* __p) {";
    out_ << '\n';
    open();
    line() << "auto* __a = static_cast<" << pack << "_t*>(__p);";
    out_ << '\n';
    line() << callee.name << "(zomp_get_thread_num(), zomp_get_thread_num()";
    for (std::size_t i = 0; i < callee.params.size(); ++i) {
      out_ << ", " << (callee.params[i].indirect ? "*__a->a" : "__a->a") << i;
    }
    out_ << ");\n";
    close();
    line() << "} };";
    out_ << '\n';
    const bool rich = !stmt.depends.empty() || stmt.final_clause != nullptr ||
                      stmt.priority != nullptr || stmt.untied ||
                      stmt.if_clause != nullptr;
    if (!rich) {
      // Zero-clause fast path: identical emission to the pre-task-graph
      // runtime entry point. An if clause is deliberately "rich": if(false)
      // must run as an UNDEFERRED TASK (fresh context, children drained at
      // the construct, runtime's run_task_inline) — calling the thunk raw
      // here would parent nested tasks to the enclosing task and diverge
      // from the interpreter.
      line() << "zomp_task(&" << loc << ", __gtid, &" << thunk << "_s::run, &"
             << pack << ", sizeof(" << pack << "));";
      out_ << '\n';
      close();
      line() << "}";
      out_ << '\n';
      return;
    }
    // Full path: depend addresses are evaluated HERE, in the enclosing
    // scope, at creation time (the OpenMP list-item model); the runtime
    // orders this task after the matching siblings. if(false)/final ride as
    // flags so the runtime can still honour the dependences before running
    // the task undeferred.
    std::string deps = "nullptr";
    if (!stmt.depends.empty()) {
      deps = fresh("taskdeps");
      line() << "zomp_depend_t " << deps << "[] = {";
      for (std::size_t i = 0; i < stmt.depends.size(); ++i) {
        if (i > 0) out_ << ", ";
        out_ << "{(void*)&(" << expr(*stmt.depends[i].item) << "), "
             << stmt.depends[i].kind << '}';
      }
      out_ << "};\n";
    }
    std::string flags = "0";
    if (stmt.if_clause) {
      flags += " | ((" + expr(*stmt.if_clause) + ") ? 0 : ZOMP_TASK_UNDEFERRED)";
    }
    if (stmt.final_clause) {
      flags += " | ((" + expr(*stmt.final_clause) + ") ? ZOMP_TASK_FINAL : 0)";
    }
    if (stmt.untied) flags += " | ZOMP_TASK_UNTIED";
    const std::string priority =
        stmt.priority ? "(std::int32_t)(" + expr(*stmt.priority) + ")" : "0";
    line() << "zomp_task_with_deps(&" << loc << ", __gtid, &" << thunk
           << "_s::run, &" << pack << ", sizeof(" << pack << "), " << deps
           << ", " << stmt.depends.size() << ", " << flags << ", " << priority
           << ");";
    out_ << '\n';
    close();
    line() << "}";
    out_ << '\n';
  }

  void emit_taskgroup(const Stmt& stmt) {
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(stmt, "taskgroup");
    out_ << '\n';
    const std::string guard = fresh("tg");
    // RAII guard: an early `return` out of the block still closes the group
    // (waiting for its tasks), keeping the runtime's group stack balanced.
    line() << "struct " << guard << "_s { const zomp_ident_t* l; "
           << "std::int32_t g; void* h; ~" << guard
           << "_s() { zomp_taskgroup_end(l, g, h); } } " << guard << "{&"
           << loc << ", __gtid, zomp_taskgroup_begin(&" << loc
           << ", __gtid)};";
    out_ << '\n';
    emit_stmt(*stmt.body);
    close();
    line() << "}";
    out_ << '\n';
  }

  void emit_taskloop(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(stmt, "taskloop");
    out_ << '\n';
    const std::string pack = fresh("tlargs");
    emit_task_pack(stmt, callee, pack);
    // Chunk thunk: the runtime hands each chunk task its [lo, hi) slice; the
    // outlined function's last two parameters receive it by value.
    const std::string thunk = fresh("tlfn");
    line() << "struct " << thunk
           << "_s { static void run(std::int64_t __lo, std::int64_t __hi, "
              "void* __p) {";
    out_ << '\n';
    open();
    line() << "auto* __a = static_cast<" << pack << "_t*>(__p);";
    out_ << '\n';
    line() << callee.name << "(zomp_get_thread_num(), zomp_get_thread_num()";
    for (std::size_t i = 0; i < stmt.captures.size(); ++i) {
      out_ << ", " << (callee.params[i].indirect ? "*__a->a" : "__a->a") << i;
    }
    out_ << ", __lo, __hi);\n";
    close();
    line() << "} };";
    out_ << '\n';
    const std::string grainsize =
        stmt.grainsize ? "(std::int64_t)(" + expr(*stmt.grainsize) + ")" : "0";
    const std::string num_tasks =
        stmt.num_tasks ? "(std::int64_t)(" + expr(*stmt.num_tasks) + ")" : "0";
    line() << "zomp_taskloop(&" << loc << ", __gtid, &" << thunk << "_s::run, &"
           << pack << ", sizeof(" << pack << "), " << expr(*stmt.expr) << ", "
           << expr(*stmt.rhs) << ", " << grainsize << ", " << num_tasks
           << ");";
    out_ << '\n';
    close();
    line() << "}";
    out_ << '\n';
  }

  // -- Reduction helpers ------------------------------------------------------------

  /// The one lowering of a reduction: a construct's run of k >= 1 adjacent
  /// combines becomes ONE zomp_reduce rendezvous. Every member copies its
  /// partials into a struct, the combine function folds each field with its
  /// own operator, and the single winner folds every field into its shared
  /// target (the ensuing barrier publishes it) — see runtime/reduce.h. Only
  /// the pack's address reaches the runtime, never a private's, so the
  /// accumulator stays in a register through the loop (DESIGN.md S7).
  void emit_reduce_pack(const std::vector<const Stmt*>& run) {
    line() << "{";
    out_ << '\n';
    open();
    const std::string loc = loc_ident(*run.front(), "reduction");
    out_ << '\n';
    const std::string pack = fresh("redpack");
    line() << "struct " << pack << "_t {";
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Stmt& s = *run[i];
      if (s.section_len > 0) {
        out_ << ' ' << cpp_type(s.symbol->type.element()) << " v" << i << '['
             << s.section_len << "];";
      } else {
        out_ << ' ' << cpp_type(s.symbol->type) << " v" << i << ';';
      }
    }
    out_ << " };\n";
    line() << "struct " << pack << "_s { static void run(void* __a, "
           << "const void* __b) {";
    out_ << '\n';
    open();
    line() << "auto* __x = static_cast<" << pack << "_t*>(__a);";
    out_ << '\n';
    line() << "const auto* __y = static_cast<const " << pack << "_t*>(__b);";
    out_ << '\n';
    for (std::size_t i = 0; i < run.size(); ++i) {
      const std::string field = "v" + std::to_string(i);
      emit_field_combine(*run[i], "__x->" + field, "__y->" + field);
    }
    close();
    line() << "} };";
    out_ << '\n';
    // An array field cannot be brace-initialised from the private array:
    // a section's field starts as {} and is copied in element-wise.
    line() << pack << "_t " << pack << "{";
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (i > 0) out_ << ", ";
      out_ << (run[i]->section_len > 0 ? "{}" : var_name(run[i]->symbol));
    }
    out_ << "};\n";
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Stmt& s = *run[i];
      if (s.section_len == 0) continue;
      line() << section_loop(s) << pack << ".v" << i << "[__k] = "
             << var_name(s.symbol) << "__priv[__k];";
      out_ << '\n';
    }
    line() << "if (zomp_reduce(&" << loc << ", __gtid, &" << pack
           << ", sizeof(" << pack << "), &" << pack << "_s::run)) {";
    out_ << '\n';
    open();
    // The winner checks each section against its shared slice (as the
    // interpreter does) before the fold writes into it.
    for (const Stmt* s : run) {
      if (s->section_len == 0) continue;
      const std::string target = var_name(s->target_symbol);
      line() << "if (" << target << ".len < " << s->section_len
             << ") mz::panic(\"reduction section exceeds its slice\", "
             << s->section_len - 1 << ", " << target << ".len);";
      out_ << '\n';
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      emit_field_combine(*run[i], var_name(run[i]->target_symbol),
                         pack + ".v" + std::to_string(i));
    }
    close();
    line() << "}";
    out_ << '\n';
    close();
    line() << "}";
    out_ << '\n';
  }

  /// `for (...; __k < len; ++__k) ` heading a section's element loop.
  static std::string section_loop(const Stmt& s) {
    return "for (std::int64_t __k = 0; __k < " +
           std::to_string(s.section_len) + "; ++__k) ";
  }

  /// Folds one reduction item of `local` into `target` (a section folds
  /// element-wise over its first section_len elements).
  void emit_field_combine(const Stmt& s, const std::string& target,
                          const std::string& local) {
    if (s.section_len > 0) {
      line() << section_loop(s)
             << combine_text(s.reduce_op, target + "[__k]", local + "[__k]")
             << ';';
    } else {
      line() << combine_text(s.reduce_op, target, local) << ';';
    }
    out_ << '\n';
  }

  /// A section's private copy: a len-element array on the member's stack,
  /// filled with the operator's identity, and a const slice view named like
  /// the variable, so the body's q[i] (bounds-checked under --safe) and the
  /// pack both reach the array while its address never leaves the frame.
  void emit_section_init(const Stmt& stmt) {
    const Type elem = stmt.symbol->type.element();
    const std::string priv = var_name(stmt.symbol) + "__priv";
    line() << cpp_type(elem) << ' ' << priv << '[' << stmt.section_len
           << "];";
    out_ << '\n';
    line() << section_loop(stmt) << priv
           << "[__k] = " << identity_text(stmt.reduce_op, elem) << ';';
    out_ << '\n';
    line() << "const " << cpp_type(stmt.symbol->type) << ' '
           << var_name(stmt.symbol) << "{" << priv << ", "
           << stmt.section_len << "};";
    out_ << '\n';
  }

  std::string identity_text(ReduceOp op, const Type& type) {
    if (type.is_f64()) {
      switch (op) {
        case ReduceOp::kAdd:
        case ReduceOp::kSub: return "0.0";
        case ReduceOp::kMul: return "1.0";
        case ReduceOp::kMin: return "std::numeric_limits<double>::infinity()";
        case ReduceOp::kMax: return "-std::numeric_limits<double>::infinity()";
        default: return "0.0";
      }
    }
    if (type.is_bool()) {
      return op == ReduceOp::kLogAnd ? "true" : "false";
    }
    switch (op) {
      case ReduceOp::kAdd:
      case ReduceOp::kSub: return "0";
      case ReduceOp::kMul: return "1";
      case ReduceOp::kMin: return "std::numeric_limits<std::int64_t>::max()";
      case ReduceOp::kMax: return "std::numeric_limits<std::int64_t>::min()";
      case ReduceOp::kBitAnd: return "-1";
      case ReduceOp::kBitOr:
      case ReduceOp::kBitXor: return "0";
      // Logical identities on i64 (must match lang::reduce_identity_i64 or
      // the backends diverge: `and` partials starting at 0 poison the whole
      // combine).
      case ReduceOp::kLogAnd: return "1";
      case ReduceOp::kLogOr: return "0";
    }
    return "0";
  }

  std::string combine_text(ReduceOp op, const std::string& target,
                           const std::string& local) {
    switch (op) {
      case ReduceOp::kAdd: return target + " = " + target + " + " + local;
      // OpenMP's '-' reduction also combines partials with +.
      case ReduceOp::kSub: return target + " = " + target + " + " + local;
      case ReduceOp::kMul: return target + " = " + target + " * " + local;
      case ReduceOp::kMin:
        return target + " = mz::mz_min(" + target + ", " + local + ")";
      case ReduceOp::kMax:
        return target + " = mz::mz_max(" + target + ", " + local + ")";
      case ReduceOp::kBitAnd: return target + " = " + target + " & " + local;
      case ReduceOp::kBitOr: return target + " = " + target + " | " + local;
      case ReduceOp::kBitXor: return target + " = " + target + " ^ " + local;
      case ReduceOp::kLogAnd: return target + " = " + target + " && " + local;
      case ReduceOp::kLogOr: return target + " = " + target + " || " + local;
    }
    return target;
  }

  static const char* assign_op_text(Stmt::AssignOp op) {
    switch (op) {
      case Stmt::AssignOp::kPlain: return "=";
      case Stmt::AssignOp::kAdd: return "+=";
      case Stmt::AssignOp::kSub: return "-=";
      case Stmt::AssignOp::kMul: return "*=";
      case Stmt::AssignOp::kDiv: return "/=";
    }
    return "=";
  }

  // -- Expressions ---------------------------------------------------------------------

  std::string expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: {
        std::ostringstream s;
        s << "INT64_C(" << e.int_value << ")";
        return s.str();
      }
      case Expr::Kind::kFloatLit: {
        std::ostringstream s;
        s.precision(17);
        s << e.float_value;
        std::string text = s.str();
        if (text.find('.') == std::string::npos &&
            text.find('e') == std::string::npos &&
            text.find("inf") == std::string::npos) {
          text += ".0";
        }
        return text;
      }
      case Expr::Kind::kBoolLit: return e.bool_value ? "true" : "false";
      case Expr::Kind::kStringLit: return escape_string(e.name);
      case Expr::Kind::kUndefined: return "{}";
      case Expr::Kind::kVarRef: return var_name(e.symbol);
      case Expr::Kind::kBinary: return binary_text(e);
      case Expr::Kind::kUnary:
        return std::string(e.un_op == UnOp::kNeg ? "-" : "!") + "(" +
               expr(*e.args[0]) + ")";
      case Expr::Kind::kCall: {
        std::string out = e.name + "(";
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out += ", ";
          out += expr(*e.args[i]);
        }
        return out + ")";
      }
      case Expr::Kind::kBuiltinCall: return builtin_text(e);
      case Expr::Kind::kIndex:
        return expr(*e.args[0]) + "[" + expr(*e.args[1]) + "]";
      case Expr::Kind::kLen: return "(" + expr(*e.args[0]) + ").len";
      case Expr::Kind::kAddrOf: return "&(" + expr(*e.args[0]) + ")";
      case Expr::Kind::kDeref: return "*(" + expr(*e.args[0]) + ")";
    }
    return "/*bad-expr*/0";
  }

  std::string binary_text(const Expr& e) {
    const std::string lhs = expr(*e.args[0]);
    const std::string rhs = expr(*e.args[1]);
    const char* op = nullptr;
    switch (e.bin_op) {
      case BinOp::kAdd: op = "+"; break;
      case BinOp::kSub: op = "-"; break;
      case BinOp::kMul: op = "*"; break;
      case BinOp::kDiv: op = "/"; break;
      case BinOp::kRem: op = "%"; break;
      case BinOp::kEq: op = "=="; break;
      case BinOp::kNe: op = "!="; break;
      case BinOp::kLt: op = "<"; break;
      case BinOp::kLe: op = "<="; break;
      case BinOp::kGt: op = ">"; break;
      case BinOp::kGe: op = ">="; break;
      case BinOp::kAnd: op = "&&"; break;
      case BinOp::kOr: op = "||"; break;
      case BinOp::kBitAnd: op = "&"; break;
      case BinOp::kBitOr: op = "|"; break;
      case BinOp::kBitXor: op = "^"; break;
      case BinOp::kShl: op = "<<"; break;
      case BinOp::kShr: op = ">>"; break;
    }
    return "(" + lhs + " " + op + " " + rhs + ")";
  }

  std::string builtin_text(const Expr& e) {
    auto arg = [&](std::size_t i) { return expr(*e.args[i]); };
    switch (e.builtin) {
      case Builtin::kSqrt: return "mz::mz_sqrt(" + arg(0) + ")";
      case Builtin::kExp: return "mz::mz_exp(" + arg(0) + ")";
      case Builtin::kLog: return "mz::mz_log(" + arg(0) + ")";
      case Builtin::kPow: return "mz::mz_pow(" + arg(0) + ", " + arg(1) + ")";
      case Builtin::kAbs: return "mz::mz_abs(" + arg(0) + ")";
      case Builtin::kMin: return "mz::mz_min(" + arg(0) + ", " + arg(1) + ")";
      case Builtin::kMax: return "mz::mz_max(" + arg(0) + ", " + arg(1) + ")";
      case Builtin::kMod: return "mz::mz_mod(" + arg(0) + ", " + arg(1) + ")";
      case Builtin::kFloatFromInt:
        return "static_cast<double>(" + arg(0) + ")";
      case Builtin::kIntFromFloat:
        return "static_cast<std::int64_t>(" + arg(0) + ")";
      case Builtin::kAlloc:
        return "mz::alloc<" + cpp_type(e.alloc_elem) + ">(" + arg(0) + ")";
      case Builtin::kFree: return "mz::free_slice(" + arg(0) + ")";
      case Builtin::kPrint: {
        std::string out = "mz::print(";
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out += ", ";
          out += expr(*e.args[i]);
        }
        return out + ")";
      }
    }
    return "/*bad-builtin*/0";
  }

  const Module& module_;
  CodegenOptions options_;
  std::string ns_;
  std::ostringstream out_;
  int indent_ = 0;
  int temp_counter_ = 0;
  bool current_fn_outlined_ = false;
  std::string ordered_index_ = "0";
  /// Escape label of the innermost enclosing ws-loop emission that contains a
  /// body-level `cancel for`; empty when no such loop is being emitted.
  std::string cancel_for_label_;
};

}  // namespace

std::string emit_cpp(const Module& module, const CodegenOptions& options) {
  Emitter emitter(module, options);
  return emitter.emit();
}

std::string emit_header(const Module& module, const CodegenOptions& options) {
  Emitter emitter(module, options);
  return emitter.emit_header_text();
}

}  // namespace zomp::codegen
