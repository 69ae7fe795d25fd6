#include "lang/clone.h"

namespace zomp::lang {

ExprPtr clone_expr(const Expr& expr) {
  auto copy = Expr::make(expr.kind, expr.loc);
  copy->int_value = expr.int_value;
  copy->float_value = expr.float_value;
  copy->bool_value = expr.bool_value;
  copy->name = expr.name;
  copy->bin_op = expr.bin_op;
  copy->un_op = expr.un_op;
  copy->builtin = expr.builtin;
  copy->alloc_elem = expr.alloc_elem;
  copy->args.reserve(expr.args.size());
  for (const auto& a : expr.args) copy->args.push_back(clone_expr(*a));
  return copy;
}

StmtPtr clone_stmt(const Stmt& stmt) {
  auto copy = Stmt::make(stmt.kind, stmt.loc);
  copy->pending_directives = stmt.pending_directives;
  for (const auto& s : stmt.stmts) copy->stmts.push_back(clone_stmt(*s));
  copy->name = stmt.name;
  copy->declared_type = stmt.declared_type;
  copy->has_declared_type = stmt.has_declared_type;
  copy->is_const = stmt.is_const;
  if (stmt.init) copy->init = clone_expr(*stmt.init);
  copy->init_is_type_hint = stmt.init_is_type_hint;
  copy->assign_op = stmt.assign_op;
  if (stmt.lhs) copy->lhs = clone_expr(*stmt.lhs);
  if (stmt.rhs) copy->rhs = clone_expr(*stmt.rhs);
  if (stmt.expr) copy->expr = clone_expr(*stmt.expr);
  if (stmt.then_block) copy->then_block = clone_stmt(*stmt.then_block);
  if (stmt.else_block) copy->else_block = clone_stmt(*stmt.else_block);
  if (stmt.step) copy->step = clone_stmt(*stmt.step);
  if (stmt.body) copy->body = clone_stmt(*stmt.body);
  copy->callee = stmt.callee;
  for (const auto& c : stmt.captures) {
    copy->captures.push_back(
        CaptureArg{c.name, c.mode, c.reduce_op, c.section_len, nullptr});
  }
  if (stmt.num_threads) copy->num_threads = clone_expr(*stmt.num_threads);
  if (stmt.if_clause) copy->if_clause = clone_expr(*stmt.if_clause);
  copy->proc_bind = stmt.proc_bind;
  copy->hoist_depth = stmt.hoist_depth;
  for (const auto& dep : stmt.depends) {
    Stmt::OmpDepend d;
    d.kind = dep.kind;
    d.item = clone_expr(*dep.item);
    copy->depends.push_back(std::move(d));
  }
  if (stmt.final_clause) copy->final_clause = clone_expr(*stmt.final_clause);
  if (stmt.priority) copy->priority = clone_expr(*stmt.priority);
  copy->untied = stmt.untied;
  if (stmt.grainsize) copy->grainsize = clone_expr(*stmt.grainsize);
  if (stmt.num_tasks) copy->num_tasks = clone_expr(*stmt.num_tasks);
  copy->cancel_construct = stmt.cancel_construct;
  copy->schedule.kind = stmt.schedule.kind;
  if (stmt.schedule.chunk) copy->schedule.chunk = clone_expr(*stmt.schedule.chunk);
  for (const auto& d : stmt.collapse) {
    copy->collapse.push_back(CollapseDim{d.iv, d.lo, d.extent, d.stride,
                                         nullptr, nullptr, nullptr, nullptr});
  }
  copy->nowait = stmt.nowait;
  copy->ordered = stmt.ordered;
  copy->lastprivate = stmt.lastprivate;
  copy->target = stmt.target;
  copy->reduce_op = stmt.reduce_op;
  copy->section_len = stmt.section_len;
  copy->red_pack = stmt.red_pack;
  return copy;
}

}  // namespace zomp::lang
