#include "interp/interp.h"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "lang/sema.h"
#include "runtime/abi.h"
#include "runtime/api.h"
#include "runtime/hl.h"
#include "runtime/pool.h"
#include "runtime/sync.h"
#include "runtime/team.h"
#include "runtime/worksharing.h"

namespace zomp::interp {

using lang::BinOp;
using lang::Builtin;
using lang::CaptureMode;
using lang::Expr;
using lang::FnDecl;
using lang::ReduceOp;
using lang::ScheduleSpec;
using lang::Stmt;
using lang::Symbol;
using lang::UnOp;

namespace {

[[noreturn]] void panic(const lang::SourceLoc& loc, const std::string& what) {
  std::fprintf(stderr, "mz panic (interp) at line %u: %s\n", loc.line,
               what.c_str());
  std::abort();
}

rt::Schedule to_rt_schedule(const ScheduleSpec::Kind kind, rt::i64 chunk) {
  rt::ScheduleKind rt_kind = rt::ScheduleKind::kStatic;
  switch (kind) {
    case ScheduleSpec::Kind::kUnspecified:
    case ScheduleSpec::Kind::kStatic: rt_kind = rt::ScheduleKind::kStatic; break;
    case ScheduleSpec::Kind::kDynamic: rt_kind = rt::ScheduleKind::kDynamic; break;
    case ScheduleSpec::Kind::kGuided: rt_kind = rt::ScheduleKind::kGuided; break;
    case ScheduleSpec::Kind::kAuto: rt_kind = rt::ScheduleKind::kAuto; break;
    case ScheduleSpec::Kind::kRuntime: rt_kind = rt::ScheduleKind::kRuntime; break;
  }
  return rt::Schedule{rt_kind, chunk};
}

Value identity_value(ReduceOp op, const lang::Type& type) {
  if (type.is_f64()) return Value(lang::reduce_identity_f64(op));
  if (type.is_bool()) return Value(op == ReduceOp::kLogAnd);
  return Value(lang::reduce_identity_i64(op));
}

Value combine_values(ReduceOp op, const Value& a, const Value& b,
                     const lang::SourceLoc& loc) {
  if (std::holds_alternative<double>(a.v)) {
    const double x = a.as_f64();
    const double y = b.as_f64();
    switch (op) {
      case ReduceOp::kAdd:
      case ReduceOp::kSub: return Value(x + y);  // '-' combines with +
      case ReduceOp::kMul: return Value(x * y);
      case ReduceOp::kMin: return Value(std::min(x, y));
      case ReduceOp::kMax: return Value(std::max(x, y));
      default: panic(loc, "bad float reduction");
    }
  }
  if (std::holds_alternative<bool>(a.v)) {
    const bool x = a.as_bool();
    const bool y = b.as_bool();
    return Value(op == ReduceOp::kLogAnd ? (x && y) : (x || y));
  }
  const std::int64_t x = a.as_i64();
  const std::int64_t y = b.as_i64();
  switch (op) {
    case ReduceOp::kAdd:
    case ReduceOp::kSub: return Value(x + y);
    case ReduceOp::kMul: return Value(x * y);
    case ReduceOp::kMin: return Value(std::min(x, y));
    case ReduceOp::kMax: return Value(std::max(x, y));
    case ReduceOp::kBitAnd: return Value(x & y);
    case ReduceOp::kBitOr: return Value(x | y);
    case ReduceOp::kBitXor: return Value(x ^ y);
    case ReduceOp::kLogAnd: return Value(static_cast<std::int64_t>(x && y));
    case ReduceOp::kLogOr: return Value(static_cast<std::int64_t>(x || y));
  }
  panic(loc, "bad reduction operator");
}

/// Packed payload for team reductions (one rendezvous for a whole
/// construct's reduction run, Stmt::red_pack; see runtime/reduce.h): one
/// entry per scalar variable and per section element, in run order. The
/// runtime tree memcpy's its slots, so Value (a variant with non-trivial
/// alternatives) cannot ride in them directly; sema restricts reductions to
/// i64/f64/bool, which all fit an entry. Entries are 16 bytes so up to 3
/// ride the inline tree slots; a longer pack is read in place from its
/// owner's buffer — either way the construct costs ONE rendezvous, whatever
/// its length. The combine function learns the entry count through its ctx
/// (every member passes its own, all equal).
struct PackEntry {
  std::uint8_t tag = 0;  // 0 = i64, 1 = f64, 2 = bool
  std::uint8_t op = 0;   // lang::ReduceOp
  union {
    std::int64_t i;
    double f;
    bool b;
  } u{};
};

PackEntry to_pack_entry(const Value& v, ReduceOp op,
                        const lang::SourceLoc& loc) {
  PackEntry e;
  e.op = static_cast<std::uint8_t>(op);
  if (std::holds_alternative<std::int64_t>(v.v)) {
    e.tag = 0;
    e.u.i = v.as_i64();
  } else if (std::holds_alternative<double>(v.v)) {
    e.tag = 1;
    e.u.f = v.as_f64();
  } else if (std::holds_alternative<bool>(v.v)) {
    e.tag = 2;
    e.u.b = v.as_bool();
  } else {
    panic(loc, "reduction over non-scalar value");
  }
  return e;
}

Value from_pack_entry(const PackEntry& e) {
  switch (e.tag) {
    case 1: return Value(e.u.f);
    case 2: return Value(e.u.b);
    default: return Value(e.u.i);
  }
}

void pack_combine(void* ctx, void* lhs, const void* rhs) {
  const std::size_t n = *static_cast<const std::size_t*>(ctx);
  auto* a = static_cast<PackEntry*>(lhs);
  const auto* b = static_cast<const PackEntry*>(rhs);
  static const lang::SourceLoc kNoLoc{};
  for (std::size_t i = 0; i < n; ++i) {
    PackEntry& x = a[i];
    const PackEntry& y = b[i];
    const Value combined =
        combine_values(static_cast<ReduceOp>(y.op), from_pack_entry(x),
                       from_pack_entry(y), kNoLoc);
    switch (x.tag) {
      case 1: x.u.f = combined.as_f64(); break;
      case 2: x.u.b = combined.as_bool(); break;
      default: x.u.i = combined.as_i64(); break;
    }
  }
}

/// Binds a native runtime entry point taking i64 arguments as a host fn.
template <typename R, typename... A>
Interp::HostFn host_fn(R (*fn)(A...)) {
  return [fn](std::vector<Value>& args) {
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      if constexpr (std::is_void_v<R>) {
        fn(args.at(I).as_i64()...);
        return Value();
      } else {
        return Value(fn(args.at(I).as_i64()...));
      }
    }(std::index_sequence_for<A...>{});
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Exec: one function activation (one thread, one frame)
// ---------------------------------------------------------------------------

class Exec {
 public:
  /// kCancelLoop is the `cancel for` escape: it unwinds like kReturn until
  /// the innermost enclosing kOmpWsLoop catches it and drains to the loop's
  /// closing barrier (the interpreter twin of codegen's goto-label escape).
  enum class Flow { kNormal, kBreak, kContinue, kReturn, kCancelLoop };

  Exec(Interp& interp, const FnDecl& fn) : interp_(interp), fn_(fn) {}

  /// Binds parameters: `cells[i]` is aliased for indirect params and copied
  /// for value params (per-thread copies are made by the caller's closure).
  void bind_params(const std::vector<Cell>& cells) {
    for (std::size_t i = 0; i < fn_.params.size(); ++i) {
      const lang::Param& p = fn_.params[i];
      if (p.indirect) {
        frame_[p.symbol] = cells[i];
      } else {
        frame_[p.symbol] = make_cell(*cells[i]);
      }
    }
  }

  Value run() {
    if (fn_.body) exec_stmt(*fn_.body);
    return std::move(return_value_);
  }

  /// Evaluates one expression in this activation's scope (used for global
  /// initialisers, which see earlier globals but no locals).
  Value eval_expr(const Expr& e) { return eval(e); }

  /// Zero value of `type` (public for global initialisation).
  Value zero_of(const lang::Type& type) { return default_value(type); }

 private:
  // -- Frame -------------------------------------------------------------------

  Cell& cell_of(const Symbol* sym, const lang::SourceLoc& loc) {
    if (sym == nullptr) panic(loc, "unresolved symbol");
    if (const auto it = frame_.find(sym); it != frame_.end()) return it->second;
    if (const auto it = interp_.globals_.find(sym); it != interp_.globals_.end()) {
      return it->second;
    }
    panic(loc, "variable '" + sym->name + "' has no storage (interpreter bug)");
  }

  void bind(const Symbol* sym, Value value) {
    frame_[sym] = make_cell(std::move(value));
  }

  // -- Statements --------------------------------------------------------------

  Flow exec_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        for (std::size_t i = 0; i < stmt.stmts.size(); ++i) {
          const Stmt& s = *stmt.stmts[i];
          // A run of adjacent reduction combines (head carries the run
          // length, 1 for a single variable) becomes ONE packed rendezvous;
          // see exec_reduce_pack.
          const auto k = static_cast<std::size_t>(s.red_pack);
          if (s.kind == Stmt::Kind::kOmpReductionCombine && k >= 1 &&
              i + k <= stmt.stmts.size()) {
            std::vector<const Stmt*> run;
            for (std::size_t j = i; j < i + k; ++j) {
              run.push_back(stmt.stmts[j].get());
            }
            exec_reduce_pack(run);
            i += k - 1;
            continue;
          }
          const Flow f = exec_stmt(s);
          if (f != Flow::kNormal) return f;
        }
        return Flow::kNormal;
      case Stmt::Kind::kVarDecl:
        bind(stmt.symbol, stmt.init && !stmt.init_is_type_hint
                              ? eval(*stmt.init)
                              : default_value(stmt.symbol->type));
        return Flow::kNormal;
      case Stmt::Kind::kAssign: {
        Value rhs = eval(*stmt.rhs);
        if (stmt.assign_op != Stmt::AssignOp::kPlain) {
          const Value lhs = load_lvalue(*stmt.lhs);
          rhs = arith(stmt.assign_op, lhs, rhs, stmt.loc);
        }
        store_lvalue(*stmt.lhs, std::move(rhs));
        return Flow::kNormal;
      }
      case Stmt::Kind::kExprStmt:
        eval(*stmt.expr);
        return Flow::kNormal;
      case Stmt::Kind::kIf:
        if (eval(*stmt.expr).as_bool()) return exec_stmt(*stmt.then_block);
        if (stmt.else_block) return exec_stmt(*stmt.else_block);
        return Flow::kNormal;
      case Stmt::Kind::kWhile:
        for (;;) {
          if (!eval(*stmt.expr).as_bool()) return Flow::kNormal;
          const Flow f = exec_stmt(*stmt.body);
          if (f == Flow::kReturn || f == Flow::kCancelLoop) return f;
          if (f == Flow::kBreak) return Flow::kNormal;
          if (stmt.step) exec_stmt(*stmt.step);  // also runs after continue
        }
      case Stmt::Kind::kForRange: {
        const std::int64_t lo = eval(*stmt.expr).as_i64();
        const std::int64_t hi = eval(*stmt.rhs).as_i64();
        for (std::int64_t i = lo; i < hi; ++i) {
          bind(stmt.symbol, Value(i));
          const Flow f = exec_stmt(*stmt.body);
          if (f == Flow::kReturn || f == Flow::kCancelLoop) return f;
          if (f == Flow::kBreak) break;
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kReturn:
        if (stmt.expr) return_value_ = eval(*stmt.expr);
        return Flow::kReturn;
      case Stmt::Kind::kBreak: return Flow::kBreak;
      case Stmt::Kind::kContinue: return Flow::kContinue;

      case Stmt::Kind::kOmpFork: return exec_fork(stmt);
      case Stmt::Kind::kOmpWsLoop: return exec_ws_loop(stmt);
      case Stmt::Kind::kOmpBarrier: {
        rt::ThreadState& ts = rt::current_thread();
        // An abandoned episode (cancel parallel) unwinds to the region end —
        // the member heads straight for the non-cancellable join barrier.
        if (ts.team->barrier_wait(ts.tid)) return Flow::kReturn;
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpCancel:
      case Stmt::Kind::kOmpCancellationPoint:
        return exec_cancel(stmt);
      case Stmt::Kind::kOmpCritical: {
        rt::critical_enter(stmt.name);
        const Flow f = exec_stmt(*stmt.body);
        rt::critical_exit(stmt.name);
        return f;
      }
      case Stmt::Kind::kOmpSingle: {
        rt::ThreadState& ts = rt::current_thread();
        Flow f = Flow::kNormal;
        if (ts.team->single_begin(ts)) f = exec_stmt(*stmt.body);
        if (!stmt.nowait && ts.team->barrier_wait(ts.tid)) {
          return Flow::kReturn;  // abandoned: region cancelled
        }
        return f;
      }
      case Stmt::Kind::kOmpMaster:
        if (rt::current_thread().tid == 0) return exec_stmt(*stmt.body);
        return Flow::kNormal;
      case Stmt::Kind::kOmpAtomic: {
        // Serialise the read-modify-write via the runtime's atomic critical;
        // semantically equivalent to hardware atomics for interpreted code.
        rt::critical_enter("__mz_atomic");
        const Flow f = exec_stmt(*stmt.body);
        rt::critical_exit("__mz_atomic");
        return f;
      }
      case Stmt::Kind::kOmpOrdered: {
        rt::ThreadState& ts = rt::current_thread();
        const std::int64_t index =
            cell_of(ordered_iv_, stmt.loc)->as_i64() - ordered_lo_;
        ts.team->ordered_enter(ts, index);
        const Flow f = exec_stmt(*stmt.body);
        ts.team->ordered_exit(ts, index);
        return f;
      }
      case Stmt::Kind::kOmpReductionInit:
        if (stmt.section_len > 0) {
          // A fresh private slice of section_len identity values.
          const Value identity =
              identity_value(stmt.reduce_op, stmt.symbol->type.element());
          bind(stmt.symbol,
               Value(SliceVal{std::make_shared<std::vector<Value>>(
                   static_cast<std::size_t>(stmt.section_len), identity)}));
          return Flow::kNormal;
        }
        bind(stmt.symbol, identity_value(stmt.reduce_op, stmt.symbol->type));
        return Flow::kNormal;
      case Stmt::Kind::kOmpReductionCombine:
        exec_reduce_pack({&stmt});  // outside a run: a pack of one
        return Flow::kNormal;
      case Stmt::Kind::kOmpLastprivateWrite: {
        Cell target = cell_of(stmt.target_symbol, stmt.loc);
        *target = *cell_of(stmt.symbol, stmt.loc);
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpTask: return exec_task(stmt);
      case Stmt::Kind::kOmpTaskwait: {
        rt::ThreadState& ts = rt::current_thread();
        ts.team->taskwait(ts);
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpTaskgroup: {
        rt::ThreadState& ts = rt::current_thread();
        rt::TaskGroup group;
        ts.team->taskgroup_begin(ts, group);
        const Flow f = exec_stmt(*stmt.body);
        // Close the group even on an early return: its tasks (and their
        // descendants) are awaited and the group stack stays balanced.
        ts.team->taskgroup_end(ts, group);
        return f;
      }
      case Stmt::Kind::kOmpTaskloop: return exec_taskloop(stmt);
    }
    return Flow::kNormal;
  }

  /// The one reduction path: a construct's run of k >= 1 combines is one
  /// team tree rendezvous (runtime/reduce.h). Every member deposits a pack
  /// of its partials (a section contributes one entry per element), the
  /// tree combines entry-by-entry (each with its own operator), and the
  /// winner alone folds every entry into its shared target; the construct's
  /// ensuing barrier publishes the writes.
  void exec_reduce_pack(const std::vector<const Stmt*>& run) {
    rt::ThreadState& ts = rt::current_thread();
    std::vector<PackEntry> pack;
    for (const Stmt* s : run) {
      const Value& local = *cell_of(s->symbol, s->loc);
      if (s->section_len == 0) {
        pack.push_back(to_pack_entry(local, s->reduce_op, s->loc));
        continue;
      }
      for (const Value& v : *local.as_slice().data) {
        pack.push_back(to_pack_entry(v, s->reduce_op, s->loc));
      }
    }
    std::size_t n = pack.size();
    if (!ts.team->reduce_combine(ts, pack.data(), n * sizeof(PackEntry),
                                 &pack_combine, &n, /*broadcast=*/false)) {
      return;
    }
    const PackEntry* entry = pack.data();
    for (const Stmt* s : run) {
      Value& target = *cell_of(s->target_symbol, s->loc);
      if (s->section_len == 0) {
        target = combine_values(s->reduce_op, target,
                                from_pack_entry(*entry++), s->loc);
        continue;
      }
      const SliceVal slice = target.as_slice();
      if (slice.len() < s->section_len) {
        panic(s->loc, "reduction section [0:" +
                          std::to_string(s->section_len) +
                          "] exceeds its slice of len " +
                          std::to_string(slice.len()));
      }
      for (int k = 0; k < s->section_len; ++k) {
        Value& element = (*slice.data)[static_cast<std::size_t>(k)];
        element = combine_values(s->reduce_op, element,
                                 from_pack_entry(*entry++), s->loc);
      }
    }
  }

  Flow exec_fork(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    std::vector<Cell> args;
    args.reserve(stmt.captures.size());
    for (const auto& cap : stmt.captures) {
      // Shared and reduction captures alias the master's cell; value and
      // slice-header captures are copied per member inside bind_params.
      args.push_back(cell_of(cap.symbol, stmt.loc));
    }
    rt::ForkOptions opts;
    if (stmt.num_threads) {
      opts.num_threads = static_cast<rt::i32>(eval(*stmt.num_threads).as_i64());
    }
    if (stmt.if_clause) opts.if_clause = eval(*stmt.if_clause).as_bool();
    if (stmt.proc_bind >= 0) {
      opts.proc_bind = static_cast<rt::BindKind>(stmt.proc_bind);
    }
    // fork_body: the closure rides in the microtask argument array directly,
    // so interpreted region entry pays no std::function allocation and takes
    // the same hot-team fast path as generated code.
    rt::fork_body(
        [&] {
          Exec member(interp_, callee);
          member.bind_params(args);
          member.run();
        },
        opts);
    return Flow::kNormal;
  }

  /// Pre-resolved collapse dimension: the synthesized lo/stride/extent
  /// locals are loaded once per construct, then each logical iteration
  /// recomputes iv_k = lo_k + (flat / stride_k) % extent_k.
  struct CollapseCtx {
    const Symbol* iv = nullptr;
    std::int64_t lo = 0;
    std::int64_t stride = 1;
    std::int64_t extent = 0;
    bool outermost = false;
  };

  Flow exec_ws_loop(const Stmt& stmt) {
    const Stmt& loop = *stmt.body;
    rt::ThreadState& ts = rt::current_thread();
    rt::Team& team = *ts.team;
    const std::int64_t lo = eval(*loop.expr).as_i64();
    const std::int64_t hi = eval(*loop.rhs).as_i64();
    const std::int64_t chunk =
        stmt.schedule.chunk ? eval(*stmt.schedule.chunk).as_i64() : 0;

    std::vector<CollapseCtx> dims;
    dims.reserve(stmt.collapse.size());
    for (std::size_t k = 0; k < stmt.collapse.size(); ++k) {
      const lang::CollapseDim& dim = stmt.collapse[k];
      CollapseCtx ctx;
      ctx.iv = dim.iv_symbol;
      ctx.lo = cell_of(dim.lo_symbol, stmt.loc)->as_i64();
      ctx.stride = cell_of(dim.stride_symbol, stmt.loc)->as_i64();
      ctx.extent = cell_of(dim.extent_symbol, stmt.loc)->as_i64();
      ctx.outermost = k == 0;
      dims.push_back(ctx);
    }
    // Odometer de-linearization: the div/mod chain runs once per chunk
    // (seed), then each logical iteration advances the ivs by incrementing
    // the innermost and carrying on overflow — mirroring the generated-code
    // lowering (codegen.cpp odometer_text). The divisors are only touched
    // while iterations run; a zero extent anywhere empties the linearized
    // space, so no division by zero.
    std::vector<std::int64_t> iv_vals(dims.size());
    auto seed_dims = [&](std::int64_t flat) {
      for (std::size_t k = 0; k < dims.size(); ++k) {
        std::int64_t v = flat / dims[k].stride;
        if (!dims[k].outermost) v %= dims[k].extent;
        iv_vals[k] = dims[k].lo + v;
      }
    };
    auto bind_dims = [&] {
      for (std::size_t k = 0; k < dims.size(); ++k) {
        bind(dims[k].iv, Value(iv_vals[k]));
      }
    };
    auto advance_dims = [&] {
      if (dims.empty()) return;
      for (std::size_t k = dims.size(); k-- > 1;) {
        if (++iv_vals[k] != dims[k].lo + dims[k].extent) return;
        iv_vals[k] = dims[k].lo;  // wrap, carry outward
      }
      ++iv_vals[0];  // the outermost dimension never wraps
    };

    // Ordered context for OmpOrdered nodes in the body.
    const Symbol* saved_iv = ordered_iv_;
    const std::int64_t saved_lo = ordered_lo_;
    ordered_iv_ = loop.symbol;
    ordered_lo_ = lo;

    const bool needs_dispatch =
        stmt.ordered || stmt.schedule.kind == ScheduleSpec::Kind::kDynamic ||
        stmt.schedule.kind == ScheduleSpec::Kind::kGuided ||
        stmt.schedule.kind == ScheduleSpec::Kind::kRuntime;

    bool had_last = false;
    // Cancellation escape shared by the two scheduling paths. `cancel for`
    // surfaces as Flow::kCancelLoop: stop issuing chunks and drain to the
    // closing barrier. A `cancel parallel` observed mid-loop surfaces as
    // Flow::kReturn with the team's parallel bit set: leave the whole region.
    Flow out = Flow::kNormal;
    auto body_escapes = [&](Flow f) {
      if (f == Flow::kCancelLoop ||
          (f == Flow::kReturn &&
           team.cancellation_requested(ts, rt::Team::kCancelParallel))) {
        out = f;
        return true;
      }
      return false;
    };
    if (!needs_dispatch) {
      const rt::StaticRange r =
          rt::static_distribute(lo, hi, 1, chunk, ts.tid, team.size());
      const std::int64_t span = r.hi - r.lo;
      for (std::int64_t block = r.lo; block < hi && out == Flow::kNormal;
           block += r.stride) {
        const std::int64_t end = std::min(block + span, hi);
        if (!dims.empty()) seed_dims(block);
        for (std::int64_t i = block; i < end; ++i) {
          bind(loop.symbol, Value(i));
          bind_dims();
          if (body_escapes(exec_stmt(*loop.body))) break;
          advance_dims();
        }
      }
      had_last = r.last;
    } else {
      team.dispatch_init(ts, to_rt_schedule(stmt.schedule.kind, chunk), lo, hi,
                         1);
      std::int64_t clo = 0, chi = 0;
      bool last = false;
      while (out == Flow::kNormal && team.dispatch_next(ts, &clo, &chi, &last)) {
        if (!dims.empty()) seed_dims(clo);
        for (std::int64_t i = clo; i < chi; ++i) {
          bind(loop.symbol, Value(i));
          bind_dims();
          if (body_escapes(exec_stmt(*loop.body))) break;
          advance_dims();
        }
        if (last) had_last = true;
      }
      // An escaped chunk leaves this thread mid-dispatch; detach its slot so
      // dispatch_fini accounting stays balanced (no-op if already detached).
      if (out != Flow::kNormal) team.dispatch_break(ts);
    }

    ordered_iv_ = saved_iv;
    ordered_lo_ = saved_lo;

    if (out == Flow::kReturn) return Flow::kReturn;  // region cancelled
    if (had_last && out == Flow::kNormal) {
      for (const auto& [local, target] : stmt.lastprivate_syms) {
        *cell_of(target, stmt.loc) = *cell_of(local, stmt.loc);
      }
    }
    if (!stmt.nowait && team.barrier_wait(ts.tid)) return Flow::kReturn;
    return Flow::kNormal;
  }

  /// `omp cancel` / `omp cancellation point`. Construct codes are the
  /// ZOMP_CANCEL_* values carried through Stmt::cancel_construct (1 parallel,
  /// 2 for, 4 taskgroup). Activation and observation both translate into a
  /// Flow escape: kCancelLoop unwinds to the enclosing ws-loop, kReturn
  /// unwinds to the region (or task body) end. Everything is a no-op while
  /// the OMP_CANCELLATION ICV is off — the runtime predicates encode that.
  Flow exec_cancel(const Stmt& stmt) {
    rt::ThreadState& ts = rt::current_thread();
    rt::Team& team = *ts.team;
    const bool is_point = stmt.kind == Stmt::Kind::kOmpCancellationPoint;
    switch (stmt.cancel_construct) {
      case 1:  // parallel
        if (is_point ? team.cancellation_requested(ts, rt::Team::kCancelParallel)
                     : team.cancel_activate(ts, rt::Team::kCancelParallel)) {
          return Flow::kReturn;
        }
        return Flow::kNormal;
      case 2: {  // for: a point also observes a region-wide cancel
        const bool hit =
            is_point ? team.cancellation_requested(
                           ts, rt::Team::kCancelLoop | rt::Team::kCancelParallel)
                     : team.cancel_activate(ts, rt::Team::kCancelLoop);
        return hit ? Flow::kCancelLoop : Flow::kNormal;
      }
      case 4:  // taskgroup
        if (is_point ? team.taskgroup_cancelled(ts) : team.cancel_taskgroup(ts)) {
          return Flow::kReturn;
        }
        return Flow::kNormal;
      default:
        return Flow::kNormal;
    }
  }

  /// Storage address of a depend item (the OpenMP list-item identity): the
  /// heap Cell for a variable, the Value slot for a slice element. Shared
  /// captures alias one Cell across the team, so sibling tasks naming the
  /// same variable agree on the address — mirroring &var in generated code.
  void* lvalue_address(const Expr& e) {
    if (e.kind == Expr::Kind::kVarRef) {
      return cell_of(e.symbol, e.loc).get();
    }
    if (e.kind == Expr::Kind::kIndex) {
      const SliceVal slice = eval(*e.args[0]).as_slice();
      const std::int64_t i = eval(*e.args[1]).as_i64();
      if (!slice.data || i < 0 || i >= slice.len()) {
        panic(e.loc, "depend item index out of bounds");
      }
      return &(*slice.data)[static_cast<std::size_t>(i)];
    }
    panic(e.loc, "depend item is not addressable");
  }

  /// Snapshot of a task-family construct's captures: firstprivate captures
  /// copy their value *now* (the task may outlive this frame); shared
  /// captures alias the enclosing cell — the region's join barrier
  /// guarantees the cell outlives the task.
  std::shared_ptr<std::vector<Cell>> snapshot_captures(const Stmt& stmt) {
    auto captured = std::make_shared<std::vector<Cell>>();
    captured->reserve(stmt.captures.size());
    for (const auto& cap : stmt.captures) {
      Cell cell = cell_of(cap.symbol, stmt.loc);
      if (cap.mode == lang::CaptureMode::kValue) {
        captured->push_back(make_cell(*cell));
      } else {
        captured->push_back(std::move(cell));
      }
    }
    return captured;
  }

  Flow exec_task(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    auto captured = snapshot_captures(stmt);
    rt::ThreadState& ts = rt::current_thread();
    Interp& interp = interp_;
    auto body_fn = [&interp, &callee, captured] {
      Exec body(interp, callee);
      body.bind_params(*captured);
      body.run();
    };
    const bool rich = !stmt.depends.empty() || stmt.final_clause != nullptr ||
                      stmt.priority != nullptr || stmt.untied ||
                      stmt.if_clause != nullptr;
    if (!rich) {
      // Zero-clause fast path, unchanged.
      ts.team->task_create(ts, std::move(body_fn));
      return Flow::kNormal;
    }
    // Clause expressions evaluate at creation time, in the enclosing scope,
    // in the SAME order as the generated code's emission (depend addresses,
    // then if, final, priority) so side-effecting clause expressions cannot
    // diverge between backends.
    std::vector<rt::DepSpec> deps;
    deps.reserve(stmt.depends.size());
    for (const auto& dep : stmt.depends) {
      rt::DepSpec spec;
      spec.addr = lvalue_address(*dep.item);
      spec.kind = static_cast<rt::DepKind>(dep.kind);
      deps.push_back(spec);
    }
    rt::TaskOpts opts;
    opts.deps = deps.data();
    opts.ndeps = static_cast<rt::i32>(deps.size());
    opts.deferred =
        stmt.if_clause == nullptr || eval(*stmt.if_clause).as_bool();
    opts.final = stmt.final_clause != nullptr && eval(*stmt.final_clause).as_bool();
    opts.untied = stmt.untied;
    opts.priority = stmt.priority
                        ? static_cast<rt::i32>(eval(*stmt.priority).as_i64())
                        : 0;
    ts.team->task_create_ex(ts, std::move(body_fn), opts);
    return Flow::kNormal;
  }

  Flow exec_taskloop(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    auto captured = snapshot_captures(stmt);
    const std::int64_t lo = eval(*stmt.expr).as_i64();
    const std::int64_t hi = eval(*stmt.rhs).as_i64();
    const std::int64_t grainsize =
        stmt.grainsize ? eval(*stmt.grainsize).as_i64() : 0;
    const std::int64_t num_tasks =
        stmt.num_tasks ? eval(*stmt.num_tasks).as_i64() : 0;
    rt::ThreadState& ts = rt::current_thread();
    Interp& interp = interp_;
    // Blocks until every chunk task completed (implicit taskgroup inside
    // Team::taskloop). The outlined function's last two parameters take the
    // chunk bounds; bind_params value-copies them per activation.
    ts.team->taskloop(
        ts, lo, hi, grainsize, num_tasks,
        [&interp, &callee, captured](rt::i64 chunk_lo, rt::i64 chunk_hi) {
          std::vector<Cell> cells = *captured;
          cells.push_back(make_cell(Value(chunk_lo)));
          cells.push_back(make_cell(Value(chunk_hi)));
          Exec body(interp, callee);
          body.bind_params(cells);
          body.run();
        });
    return Flow::kNormal;
  }

  // -- Expressions ----------------------------------------------------------------

  Value default_value(const lang::Type& type) {
    if (type.is_f64()) return Value(0.0);
    if (type.is_bool()) return Value(false);
    if (type.is_slice()) return Value(SliceVal{});
    if (type.is_pointer()) return Value(PtrVal{});
    return Value(std::int64_t{0});
  }

  Value load_lvalue(const Expr& e) { return eval(e); }

  void store_lvalue(const Expr& e, Value value) {
    switch (e.kind) {
      case Expr::Kind::kVarRef:
        *cell_of(e.symbol, e.loc) = std::move(value);
        return;
      case Expr::Kind::kIndex: {
        const SliceVal slice = eval(*e.args[0]).as_slice();
        const std::int64_t i = eval(*e.args[1]).as_i64();
        if (!slice.data || i < 0 || i >= slice.len()) {
          panic(e.loc, "index out of bounds (store)");
        }
        (*slice.data)[static_cast<std::size_t>(i)] = std::move(value);
        return;
      }
      case Expr::Kind::kDeref: {
        const PtrVal p = eval(*e.args[0]).as_ptr();
        if (p.is_element) {
          if (!p.slice.data || p.index < 0 || p.index >= p.slice.len()) {
            panic(e.loc, "dangling element pointer (store)");
          }
          (*p.slice.data)[static_cast<std::size_t>(p.index)] = std::move(value);
        } else if (p.cell) {
          *p.cell = std::move(value);
        } else {
          panic(e.loc, "store through null pointer");
        }
        return;
      }
      default:
        panic(e.loc, "not an assignable expression");
    }
  }

  Value arith(Stmt::AssignOp op, const Value& a, const Value& b,
              const lang::SourceLoc& loc) {
    BinOp bop;
    switch (op) {
      case Stmt::AssignOp::kAdd: bop = BinOp::kAdd; break;
      case Stmt::AssignOp::kSub: bop = BinOp::kSub; break;
      case Stmt::AssignOp::kMul: bop = BinOp::kMul; break;
      case Stmt::AssignOp::kDiv: bop = BinOp::kDiv; break;
      default: panic(loc, "bad compound assignment");
    }
    return binary(bop, a, b, loc);
  }

  Value binary(BinOp op, const Value& a, const Value& b,
               const lang::SourceLoc& loc) {
    if (std::holds_alternative<double>(a.v)) {
      const double x = a.as_f64();
      const double y = b.as_f64();
      switch (op) {
        case BinOp::kAdd: return Value(x + y);
        case BinOp::kSub: return Value(x - y);
        case BinOp::kMul: return Value(x * y);
        case BinOp::kDiv: return Value(x / y);
        case BinOp::kEq: return Value(x == y);
        case BinOp::kNe: return Value(x != y);
        case BinOp::kLt: return Value(x < y);
        case BinOp::kLe: return Value(x <= y);
        case BinOp::kGt: return Value(x > y);
        case BinOp::kGe: return Value(x >= y);
        default: panic(loc, "bad float operator");
      }
    }
    if (std::holds_alternative<bool>(a.v)) {
      const bool x = a.as_bool();
      const bool y = b.as_bool();
      switch (op) {
        case BinOp::kEq: return Value(x == y);
        case BinOp::kNe: return Value(x != y);
        case BinOp::kAnd: return Value(x && y);
        case BinOp::kOr: return Value(x || y);
        default: panic(loc, "bad bool operator");
      }
    }
    const std::int64_t x = a.as_i64();
    const std::int64_t y = b.as_i64();
    switch (op) {
      case BinOp::kAdd: return Value(x + y);
      case BinOp::kSub: return Value(x - y);
      case BinOp::kMul: return Value(x * y);
      case BinOp::kDiv:
        if (y == 0) panic(loc, "integer division by zero");
        return Value(x / y);
      case BinOp::kRem:
        if (y == 0) panic(loc, "integer remainder by zero");
        return Value(x % y);
      case BinOp::kEq: return Value(x == y);
      case BinOp::kNe: return Value(x != y);
      case BinOp::kLt: return Value(x < y);
      case BinOp::kLe: return Value(x <= y);
      case BinOp::kGt: return Value(x > y);
      case BinOp::kGe: return Value(x >= y);
      case BinOp::kBitAnd: return Value(x & y);
      case BinOp::kBitOr: return Value(x | y);
      case BinOp::kBitXor: return Value(x ^ y);
      case BinOp::kShl: return Value(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(x) << (y & 63)));
      case BinOp::kShr: return Value(x >> (y & 63));
      default: panic(loc, "bad integer operator");
    }
  }

  Value eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: return Value(e.int_value);
      case Expr::Kind::kFloatLit: return Value(e.float_value);
      case Expr::Kind::kBoolLit: return Value(e.bool_value);
      case Expr::Kind::kStringLit: return Value(e.name);
      case Expr::Kind::kUndefined: return Value(std::int64_t{0});
      case Expr::Kind::kVarRef: return *cell_of(e.symbol, e.loc);
      case Expr::Kind::kBinary: {
        // Short-circuit for and/or.
        if (e.bin_op == BinOp::kAnd) {
          return Value(eval(*e.args[0]).as_bool() &&
                       eval(*e.args[1]).as_bool());
        }
        if (e.bin_op == BinOp::kOr) {
          return Value(eval(*e.args[0]).as_bool() ||
                       eval(*e.args[1]).as_bool());
        }
        const Value a = eval(*e.args[0]);
        const Value b = eval(*e.args[1]);
        return binary(e.bin_op, a, b, e.loc);
      }
      case Expr::Kind::kUnary: {
        const Value v = eval(*e.args[0]);
        if (e.un_op == UnOp::kNot) return Value(!v.as_bool());
        if (std::holds_alternative<double>(v.v)) return Value(-v.as_f64());
        return Value(-v.as_i64());
      }
      case Expr::Kind::kCall: return eval_call(e);
      case Expr::Kind::kBuiltinCall: return eval_builtin(e);
      case Expr::Kind::kIndex: {
        const SliceVal slice = eval(*e.args[0]).as_slice();
        const std::int64_t i = eval(*e.args[1]).as_i64();
        if (!slice.data || i < 0 || i >= slice.len()) {
          panic(e.loc, "index out of bounds: index " + std::to_string(i) +
                           ", len " + std::to_string(slice.len()));
        }
        return (*slice.data)[static_cast<std::size_t>(i)];
      }
      case Expr::Kind::kLen: return Value(eval(*e.args[0]).as_slice().len());
      case Expr::Kind::kAddrOf: {
        const Expr& target = *e.args[0];
        if (target.kind == Expr::Kind::kVarRef) {
          PtrVal p;
          p.cell = cell_of(target.symbol, e.loc);
          return Value(p);
        }
        // &slice[i]
        PtrVal p;
        p.slice = eval(*target.args[0]).as_slice();
        p.index = eval(*target.args[1]).as_i64();
        p.is_element = true;
        return Value(p);
      }
      case Expr::Kind::kDeref: {
        const PtrVal p = eval(*e.args[0]).as_ptr();
        if (p.is_element) {
          if (!p.slice.data || p.index < 0 || p.index >= p.slice.len()) {
            panic(e.loc, "dangling element pointer");
          }
          return (*p.slice.data)[static_cast<std::size_t>(p.index)];
        }
        if (!p.cell) panic(e.loc, "load through null pointer");
        return *p.cell;
      }
    }
    panic(e.loc, "bad expression");
  }

  Value eval_call(const Expr& e) {
    const FnDecl* callee = e.callee;
    if (callee == nullptr) panic(e.loc, "unresolved call");
    if (callee->is_extern) {
      const auto it = interp_.host_fns_.find(callee->name);
      if (it == interp_.host_fns_.end()) {
        panic(e.loc, "extern function '" + callee->name +
                         "' has no host binding registered");
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) args.push_back(eval(*a));
      return it->second(args);
    }
    std::vector<Cell> cells;
    cells.reserve(e.args.size());
    for (const auto& a : e.args) cells.push_back(make_cell(eval(*a)));
    Exec callee_exec(interp_, *callee);
    callee_exec.bind_params(cells);
    return callee_exec.run();
  }

  Value eval_builtin(const Expr& e) {
    auto f = [&](std::size_t i) { return eval(*e.args[i]); };
    switch (e.builtin) {
      case Builtin::kSqrt: return Value(std::sqrt(f(0).as_f64()));
      case Builtin::kExp: return Value(std::exp(f(0).as_f64()));
      case Builtin::kLog: return Value(std::log(f(0).as_f64()));
      case Builtin::kPow:
        return Value(std::pow(f(0).as_f64(), f(1).as_f64()));
      case Builtin::kAbs: {
        const Value v = f(0);
        if (std::holds_alternative<double>(v.v)) {
          return Value(std::fabs(v.as_f64()));
        }
        const std::int64_t x = v.as_i64();
        return Value(x < 0 ? -x : x);
      }
      case Builtin::kMin:
      case Builtin::kMax: {
        const Value a = f(0);
        const Value b = f(1);
        const bool take_min = e.builtin == Builtin::kMin;
        if (std::holds_alternative<double>(a.v)) {
          return Value(take_min ? std::min(a.as_f64(), b.as_f64())
                                : std::max(a.as_f64(), b.as_f64()));
        }
        return Value(take_min ? std::min(a.as_i64(), b.as_i64())
                              : std::max(a.as_i64(), b.as_i64()));
      }
      case Builtin::kMod: {
        const std::int64_t a = f(0).as_i64();
        const std::int64_t b = f(1).as_i64();
        if (b == 0) panic(e.loc, "@mod by zero");
        const std::int64_t r = a % b;
        return Value((r != 0 && ((r < 0) != (b < 0))) ? r + b : r);
      }
      case Builtin::kFloatFromInt:
        return Value(static_cast<double>(f(0).as_i64()));
      case Builtin::kIntFromFloat:
        return Value(static_cast<std::int64_t>(f(0).as_f64()));
      case Builtin::kAlloc: {
        const std::int64_t n = f(0).as_i64();
        if (n < 0) panic(e.loc, "negative @alloc length");
        SliceVal s;
        s.data = std::make_shared<std::vector<Value>>(
            static_cast<std::size_t>(n),
            default_value(lang::Type::slice_of(e.alloc_elem.scalar()).element()));
        return Value(s);
      }
      case Builtin::kFree:
        // Slices are shared_ptr-backed; explicit free is a no-op that keeps
        // source compatibility with the codegen backend.
        f(0);
        return Value();
      case Builtin::kPrint: {
        std::ostringstream line;
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) line << ' ';
          const Value v = f(i);
          if (std::holds_alternative<std::int64_t>(v.v)) {
            line << v.as_i64();
          } else if (std::holds_alternative<double>(v.v)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v.as_f64());
            line << buf;
          } else if (std::holds_alternative<bool>(v.v)) {
            line << (v.as_bool() ? "true" : "false");
          } else if (std::holds_alternative<std::string>(v.v)) {
            line << std::get<std::string>(v.v);
          } else {
            line << "<value>";
          }
        }
        line << '\n';
        {
          const std::lock_guard<std::mutex> lock(interp_.print_mutex_);
          std::ostream* out =
              interp_.options_.out != nullptr ? interp_.options_.out : &std::cout;
          (*out) << line.str();
          out->flush();
        }
        return Value();
      }
    }
    panic(e.loc, "bad builtin");
  }

  Interp& interp_;
  const FnDecl& fn_;
  std::unordered_map<const Symbol*, Cell> frame_;
  Value return_value_;
  const Symbol* ordered_iv_ = nullptr;
  std::int64_t ordered_lo_ = 0;
};

// ---------------------------------------------------------------------------
// Interp
// ---------------------------------------------------------------------------

Interp::Interp(const lang::Module& module, Options options)
    : module_(module), options_(options) {
  // Globals, in declaration order: each initialiser is evaluated by a frame-
  // less activation that sees all previously initialised globals.
  static const FnDecl global_init_fn{};
  for (const auto& g : module_.globals) {
    if (g->kind != Stmt::Kind::kVarDecl || g->symbol == nullptr) continue;
    Exec exec(*this, global_init_fn);
    Value v = g->init ? exec.eval_expr(*g->init) : exec.zero_of(g->symbol->type);
    globals_[g->symbol] = make_cell(std::move(v));
  }

  // Pre-registered host functions: every row of the routine table binds to
  // its native mz_omp_ entry point, which does the i64 conversions.
#define ZOMP_HOST_FN(q, impl) \
  host_fns_.emplace("mz_omp_" #q, host_fn(&mz_omp_##q));
  ZOMP_ROUTINES(ZOMP_HOST_FN, ZOMP_HOST_FN, ZOMP_HOST_FN, ZOMP_HOST_FN,
                ZOMP_HOST_FN)
#undef ZOMP_HOST_FN
}

void Interp::register_host_fn(const std::string& name, HostFn fn) {
  host_fns_[name] = std::move(fn);
}

bool Interp::run_main() {
  const FnDecl* main_fn = module_.find_function("main");
  if (main_fn == nullptr || main_fn->is_extern) return false;
  Exec exec(*this, *main_fn);
  exec.run();
  return true;
}

Value Interp::call_by_name(const std::string& name, std::vector<Value> args) {
  const FnDecl* fn = module_.find_function(name);
  if (fn == nullptr) {
    std::fprintf(stderr, "interp: no function '%s'\n", name.c_str());
    std::abort();
  }
  std::vector<Cell> cells;
  cells.reserve(args.size());
  for (auto& a : args) cells.push_back(make_cell(std::move(a)));
  Exec exec(*this, *fn);
  exec.bind_params(cells);
  return exec.run();
}

}  // namespace zomp::interp
