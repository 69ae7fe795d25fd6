// AST utility tests: the Type value API, symbol arena, deep cloning, and the
// dump format the golden tests depend on.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "lang/clone.h"
#include "lang/lexer.h"
#include "lang/parser.h"

namespace zomp::lang {
namespace {

TEST(TypeTest, PredicatesAndSpellings) {
  EXPECT_TRUE(Type::i64().is_i64());
  EXPECT_TRUE(Type::i64().is_numeric());
  EXPECT_TRUE(Type::f64().is_f64());
  EXPECT_FALSE(Type::f64().is_i64());
  EXPECT_TRUE(Type::boolean().is_bool());
  EXPECT_TRUE(Type::void_type().is_void());
  EXPECT_TRUE(Type::invalid().is_invalid());
  EXPECT_TRUE(Type::inferred().is_inferred());
  EXPECT_TRUE(Type::slice_of(ScalarKind::kF64).is_slice());
  EXPECT_TRUE(Type::pointer_to(ScalarKind::kI64).is_pointer());

  EXPECT_EQ(Type::i64().to_string(), "i64");
  EXPECT_EQ(Type::slice_of(ScalarKind::kF64).to_string(), "[]f64");
  EXPECT_EQ(Type::pointer_to(ScalarKind::kBool).to_string(), "*bool");
}

TEST(TypeTest, ElementTypeOfCompound) {
  EXPECT_EQ(Type::slice_of(ScalarKind::kF64).element(), Type::f64());
  EXPECT_EQ(Type::pointer_to(ScalarKind::kI64).element(), Type::i64());
}

TEST(TypeTest, Equality) {
  EXPECT_EQ(Type::i64(), Type::i64());
  EXPECT_NE(Type::i64(), Type::f64());
  EXPECT_NE(Type::slice_of(ScalarKind::kF64), Type::pointer_to(ScalarKind::kF64));
  EXPECT_NE(Type::slice_of(ScalarKind::kF64), Type::slice_of(ScalarKind::kI64));
}

TEST(SymbolTest, ArenaAssignsDenseIds) {
  Module module;
  Symbol* a = module.new_symbol("a", Symbol::Kind::kLocal, Type::i64(), false);
  Symbol* b = module.new_symbol("b", Symbol::Kind::kParam, Type::f64(), true);
  EXPECT_EQ(a->id, 0);
  EXPECT_EQ(b->id, 1);
  EXPECT_TRUE(b->is_const);
  EXPECT_EQ(module.symbols.size(), 2u);
}

TEST(ModuleTest, FindFunction) {
  Module module;
  auto fn = std::make_unique<FnDecl>();
  fn->name = "target";
  module.functions.push_back(std::move(fn));
  EXPECT_NE(module.find_function("target"), nullptr);
  EXPECT_EQ(module.find_function("missing"), nullptr);
  const Module& cmod = module;
  EXPECT_NE(cmod.find_function("target"), nullptr);
}

std::unique_ptr<Module> parse(const std::string& text) {
  SourceFile file("clone.mz", text);
  Diagnostics diags;
  Lexer lexer(file, diags);
  Parser parser(lexer.lex(), diags);
  auto module = parser.parse_module("clone");
  EXPECT_FALSE(diags.has_errors()) << diags.render(file);
  return module;
}

TEST(CloneTest, ExpressionDeepCopyIsIndependent) {
  auto module = parse("fn f(a: i64) i64 { return a * 2 + 1; }");
  const Stmt& ret = *module->functions[0]->body->stmts[0];
  ExprPtr copy = clone_expr(*ret.expr);
  EXPECT_EQ(dump_expr(*copy), dump_expr(*ret.expr));
  // Mutating the clone must not affect the original.
  copy->args[0]->args[1]->int_value = 99;
  EXPECT_NE(dump_expr(*copy), dump_expr(*ret.expr));
}

TEST(DumpTest, StableShapeForGoldenTests) {
  auto module = parse("fn f(a: i64, x: []f64) f64 { return x[a]; }");
  const std::string out = dump_ast(*module);
  EXPECT_EQ(out,
            "(module clone\n"
            "  (fn f (a:i64 x:[]f64) f64\n"
            "    (block\n"
            "      (return (index x a))\n"
            "    )\n"
            "  )\n"
            ")\n");
}

TEST(DumpTest, ReduceOpSpellings) {
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kAdd), "+");
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kMul), "*");
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kMin), "min");
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kMax), "max");
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kBitAnd), "&");
  EXPECT_STREQ(reduce_op_spelling(ReduceOp::kLogOr), "or");
}

}  // namespace
}  // namespace zomp::lang
