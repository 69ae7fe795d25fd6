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

}  // namespace zomp::lang
