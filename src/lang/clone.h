// Deep-clone helper for AST expressions. The directive engine copies a
// schedule clause's chunk expression from the parsed directive into the
// worksharing loop it lowers. Clones carry source locations but no
// resolution results (sema re-resolves).
#pragma once

#include "lang/ast.h"

namespace zomp::lang {

ExprPtr clone_expr(const Expr& expr);

}  // namespace zomp::lang
