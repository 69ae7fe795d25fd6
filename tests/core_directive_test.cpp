// Directive-clause grammar tests (core/directive_parser.h) — the parsing half
// of the paper's contribution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/directive_parser.h"
#include "core/pipeline.h"

namespace zomp::core {
namespace {

std::unique_ptr<Directive> parse_ok(const std::string& text) {
  lang::Diagnostics diags;
  auto d = parse_directive(text, lang::SourceLoc{}, diags);
  EXPECT_NE(d, nullptr) << text;
  EXPECT_FALSE(diags.has_errors()) << text;
  return d;
}

void parse_fail(const std::string& text, const std::string& fragment = "") {
  lang::Diagnostics diags;
  auto d = parse_directive(text, lang::SourceLoc{}, diags);
  EXPECT_EQ(d, nullptr) << text;
  EXPECT_TRUE(diags.has_errors()) << text;
  if (!fragment.empty()) {
    bool found = false;
    for (const auto& diag : diags.all()) {
      if (diag.message.find(fragment) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "wanted '" << fragment << "' for: " << text;
  }
}

TEST(DirectiveParserTest, BareConstructs) {
  EXPECT_EQ(parse_ok(" parallel")->kind, DirectiveKind::kParallel);
  EXPECT_EQ(parse_ok(" for")->kind, DirectiveKind::kFor);
  EXPECT_EQ(parse_ok(" parallel for")->kind, DirectiveKind::kParallelFor);
  EXPECT_EQ(parse_ok(" barrier")->kind, DirectiveKind::kBarrier);
  EXPECT_EQ(parse_ok(" critical")->kind, DirectiveKind::kCritical);
  EXPECT_EQ(parse_ok(" single")->kind, DirectiveKind::kSingle);
  EXPECT_EQ(parse_ok(" master")->kind, DirectiveKind::kMaster);
  EXPECT_EQ(parse_ok(" atomic")->kind, DirectiveKind::kAtomic);
  EXPECT_EQ(parse_ok(" ordered")->kind, DirectiveKind::kOrdered);
  EXPECT_EQ(parse_ok(" task")->kind, DirectiveKind::kTask);
  EXPECT_EQ(parse_ok(" taskwait")->kind, DirectiveKind::kTaskwait);
}

TEST(DirectiveParserTest, UnknownDirectiveRejected) {
  parse_fail(" sections", "unknown OpenMP directive");
  parse_fail(" paralel", "unknown OpenMP directive");
}

TEST(DirectiveParserTest, DataSharingLists) {
  auto d = parse_ok(" parallel shared(a, b) private(c) firstprivate(d, e)");
  EXPECT_EQ(d->shared_vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d->private_vars, (std::vector<std::string>{"c"}));
  EXPECT_EQ(d->firstprivate_vars, (std::vector<std::string>{"d", "e"}));
}

TEST(DirectiveParserTest, DefaultClause) {
  EXPECT_EQ(parse_ok(" parallel default(shared)")->default_mode,
            DefaultKind::kShared);
  EXPECT_EQ(parse_ok(" parallel default(none)")->default_mode,
            DefaultKind::kNone);
  parse_fail(" parallel default(private)", "default");
}

TEST(DirectiveParserTest, ReductionOperators) {
  using lang::ReduceOp;
  const std::pair<const char*, ReduceOp> cases[] = {
      {" parallel reduction(+: s)", ReduceOp::kAdd},
      {" parallel reduction(-: s)", ReduceOp::kSub},
      {" parallel reduction(*: s)", ReduceOp::kMul},
      {" parallel reduction(min: s)", ReduceOp::kMin},
      {" parallel reduction(max: s)", ReduceOp::kMax},
      {" parallel reduction(&: s)", ReduceOp::kBitAnd},
      {" parallel reduction(|: s)", ReduceOp::kBitOr},
      {" parallel reduction(^: s)", ReduceOp::kBitXor},
      {" parallel reduction(and: s)", ReduceOp::kLogAnd},
      {" parallel reduction(or: s)", ReduceOp::kLogOr},
  };
  for (const auto& [text, op] : cases) {
    auto d = parse_ok(text);
    ASSERT_EQ(d->reductions.size(), 1u) << text;
    EXPECT_EQ(d->reductions[0].op, op) << text;
    EXPECT_EQ(d->reductions[0].vars, std::vector<std::string>{"s"}) << text;
  }
}

TEST(DirectiveParserTest, ReductionMultipleVarsAndClauses) {
  auto d = parse_ok(" parallel for reduction(+: a, b) reduction(max: c)");
  ASSERT_EQ(d->reductions.size(), 2u);
  EXPECT_EQ(d->reductions[0].vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d->reductions[1].vars, (std::vector<std::string>{"c"}));
}

TEST(DirectiveParserTest, ReductionErrors) {
  parse_fail(" parallel reduction(%: s)", "reduction operator");
  parse_fail(" parallel reduction(+ s)", "':'");
  parse_fail(" parallel reduction(+:)", "variable names");
}

// -- Array-section reductions: reduction(op: name[0:len]) -------------------

TEST(DirectiveParserTest, ReductionSectionsParse) {
  auto d = parse_ok(" parallel for reduction(+: sx, q[0:10], sy)");
  ASSERT_EQ(d->reductions.size(), 1u);
  EXPECT_EQ(d->reductions[0].vars,
            (std::vector<std::string>{"sx", "q", "sy"}));
  EXPECT_EQ(d->reductions[0].section_lens, (std::vector<int>{0, 10, 0}));

  // The lower bound may be omitted; sections and scalars mix across
  // clauses; the length runs from 1 to 1024.
  d = parse_ok(" for reduction(max: h[:4]) reduction(+: s, b[0:1024], c[0:1])");
  ASSERT_EQ(d->reductions.size(), 2u);
  EXPECT_EQ(d->reductions[0].vars, std::vector<std::string>{"h"});
  EXPECT_EQ(d->reductions[0].section_lens, std::vector<int>{4});
  EXPECT_EQ(d->reductions[1].vars,
            (std::vector<std::string>{"s", "b", "c"}));
  EXPECT_EQ(d->reductions[1].section_lens, (std::vector<int>{0, 1024, 1}));

  // Plain lists record a 0 length per name.
  d = parse_ok(" parallel reduction(+: a, b)");
  EXPECT_EQ(d->reductions[0].section_lens, (std::vector<int>{0, 0}));
}

TEST(DirectiveParserTest, ReductionSectionBoundsRejected) {
  // Every diagnostic names the clause with the item as written.
  const char* const lower = "lower bound must be the literal 0";
  parse_fail(" parallel for reduction(+: q[1:10])",
             "reduction(+: q[1:10]): the array section's " + std::string(lower));
  parse_fail(" parallel for reduction(+: q[lo:10])", lower);
  parse_fail(" parallel for reduction(+: q[0+0:10])", lower);
  parse_fail(" parallel for reduction(+: q[0.0:10])", lower);

  const char* const length =
      "length must be an integer literal from 1 to 1024";
  parse_fail(" parallel for reduction(max: q[0:n])",
             "reduction(max: q[0:n]): the array section's " +
                 std::string(length));
  parse_fail(" for reduction(+: q[:0])", length);
  parse_fail(" for reduction(+: q[0:1025])", length);
  parse_fail(" for reduction(+: q[0:-1])", length);
  parse_fail(" for reduction(+: q[0:2*5])", length);
  parse_fail(" for reduction(+: q[0:])", length);

  parse_fail(" parallel for reduction(+: q[3])", "expected an array section");
  parse_fail(" parallel for reduction(+: q[0:4)", "variable names or array");
  parse_fail(" parallel for reduction(+: [0:4])", "variable names or array");
}

/// Compiles a module through the full pipeline and expects one error whose
/// message contains `fragment`, with no engine-internal name in the output.
void compile_fail(const std::string& source, const std::string& fragment) {
  auto result = compile_source(source);
  EXPECT_FALSE(result.ok) << source;
  const std::string text = result.diagnostics_text();
  EXPECT_NE(text.find(fragment), std::string::npos) << text;
  EXPECT_EQ(text.find("__"), std::string::npos) << text;
}

TEST(DirectiveParserTest, ReductionSectionBaseMustBeACapturedSlice) {
  const char* const want =
      "reduction(+: x[0:3]): the section base 'x' must be a slice captured "
      "from the enclosing scope, not f64";
  compile_fail(R"(
fn f(x: f64, q: []f64) void {
  //#omp parallel for reduction(+: x[0:3])
  for (0..8) |i| {
    q[i] = x;
  }
}
)",
               want);
  compile_fail(R"(
fn f(x: f64, q: []f64) void {
  //#omp parallel
  {
    //#omp for reduction(+: x[0:3])
    for (0..8) |i| {
      q[i] = x;
    }
  }
}
)",
               want);
}

/// `reduction(<op>: flags[0:4])` over a bool slice, on `parallel for` and
/// on a standalone `for` inside a region.
std::vector<std::string> bool_section_sources(const std::string& op) {
  const std::string loop = "reduction(" + op + ": flags[0:4])\n" +
                           "  for (0..8) |i| {\n"
                           "    flags[@mod(i, 4)] = true;\n"
                           "  }\n";
  return {"fn f(flags: []bool) void {\n  //#omp parallel for " + loop + "}\n",
          "fn f(flags: []bool) void {\n  //#omp parallel\n  {\n  //#omp for " +
              loop + "  }\n}\n"};
}

TEST(DirectiveParserTest, BoolSectionNeedsALogicalOperator) {
  for (const std::string& source : bool_section_sources("+")) {
    compile_fail(source,
                 "reduction(+: flags[0:4]): a bool section reduces only with "
                 "'and' or 'or'");
  }
  for (const std::string& source : bool_section_sources("or")) {
    auto result = compile_source(source);
    EXPECT_TRUE(result.ok) << source << result.diagnostics_text();
  }
}

TEST(DirectiveParserTest, ScheduleClause) {
  using K = lang::ScheduleSpec::Kind;
  EXPECT_EQ(parse_ok(" for schedule(static)")->schedule.kind, K::kStatic);
  EXPECT_EQ(parse_ok(" for schedule(dynamic)")->schedule.kind, K::kDynamic);
  EXPECT_EQ(parse_ok(" for schedule(guided)")->schedule.kind, K::kGuided);
  EXPECT_EQ(parse_ok(" for schedule(auto)")->schedule.kind, K::kAuto);
  EXPECT_EQ(parse_ok(" for schedule(runtime)")->schedule.kind, K::kRuntime);
  auto with_chunk = parse_ok(" for schedule(dynamic, 16)");
  ASSERT_NE(with_chunk->schedule.chunk, nullptr);
  EXPECT_EQ(with_chunk->schedule.chunk->int_value, 16);
}

TEST(DirectiveParserTest, ScheduleChunkIsExpression) {
  auto d = parse_ok(" for schedule(dynamic, n / 4)");
  ASSERT_NE(d->schedule.chunk, nullptr);
  EXPECT_EQ(lang::dump_expr(*d->schedule.chunk), "(/ n 4)");
}

TEST(DirectiveParserTest, ScheduleErrors) {
  parse_fail(" for schedule(fast)", "unknown schedule kind");
  parse_fail(" for schedule(runtime, 4)", "no chunk");
  parse_fail(" for schedule(static, 1, 2)", "too many");
}

TEST(DirectiveParserTest, NumThreadsAndIfAreExpressions) {
  auto d = parse_ok(" parallel num_threads(2 * n) if(n > 100)");
  ASSERT_NE(d->num_threads, nullptr);
  EXPECT_EQ(lang::dump_expr(*d->num_threads), "(* 2 n)");
  ASSERT_NE(d->if_clause, nullptr);
  EXPECT_EQ(lang::dump_expr(*d->if_clause), "(> n 100)");
}

TEST(DirectiveParserTest, CriticalName) {
  EXPECT_EQ(parse_ok(" critical")->critical_name, "");
  EXPECT_EQ(parse_ok(" critical(updates)")->critical_name, "updates");
}

TEST(DirectiveParserTest, NowaitOrderedLastprivate) {
  auto d = parse_ok(" for nowait lastprivate(x, y)");
  EXPECT_TRUE(d->nowait);
  EXPECT_EQ(d->lastprivate_vars, (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(parse_ok(" for ordered")->ordered);
  parse_fail(" for ordered nowait", "nowait");
}

TEST(DirectiveParserTest, ClausePlacementValidation) {
  parse_fail(" for num_threads(4)", "not valid");
  parse_fail(" parallel schedule(static)", "not valid");
  parse_fail(" barrier nowait", "not valid");
  parse_fail(" single schedule(static)", "not valid");
  parse_fail(" for shared(x)", "not valid");
  parse_fail(" parallel for nowait", "not valid");
  parse_fail(" critical reduction(+: x)", "not valid");
}

TEST(DirectiveParserTest, SingleNowaitAllowed) {
  EXPECT_TRUE(parse_ok(" single nowait")->nowait);
}

TEST(DirectiveParserTest, TaskClauses) {
  auto d = parse_ok(" task if(n > 10) firstprivate(a)");
  EXPECT_NE(d->if_clause, nullptr);
  EXPECT_EQ(d->firstprivate_vars, (std::vector<std::string>{"a"}));
}

TEST(DirectiveParserTest, UnsupportedClausesWarnButPass) {
  lang::Diagnostics diags;
  auto d = parse_directive(" parallel copyin(x)", lang::SourceLoc{}, diags);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(diags.has_errors());
  bool warned = false;
  for (const auto& diag : diags.all()) {
    if (diag.severity == lang::Severity::kWarning) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(DirectiveParserTest, ProcBindKinds) {
  EXPECT_EQ(parse_ok(" parallel proc_bind(primary)")->proc_bind,
            ProcBindKind::kPrimary);
  // `master` is the deprecated 5.0 alias for primary.
  EXPECT_EQ(parse_ok(" parallel proc_bind(master)")->proc_bind,
            ProcBindKind::kPrimary);
  EXPECT_EQ(parse_ok(" parallel proc_bind(close)")->proc_bind,
            ProcBindKind::kClose);
  EXPECT_EQ(parse_ok(" parallel for proc_bind(spread) schedule(static)")
                ->proc_bind,
            ProcBindKind::kSpread);
  EXPECT_EQ(parse_ok(" parallel")->proc_bind, ProcBindKind::kUnspecified);
}

TEST(DirectiveParserTest, ProcBindErrors) {
  parse_fail(" parallel proc_bind(everywhere)", "unknown proc_bind kind");
  parse_fail(" parallel proc_bind()", "proc_bind(...) takes");
  parse_fail(" parallel proc_bind(close, spread)", "proc_bind(...) takes");
  parse_fail(" parallel proc_bind(close) proc_bind(spread)",
             "duplicate 'proc_bind' clause");
  parse_fail(" for proc_bind(close)", "not valid on 'for'");
  parse_fail(" task proc_bind(spread)", "not valid on 'task'");
}

TEST(DirectiveParserTest, TaskingConstructHeads) {
  EXPECT_EQ(parse_ok(" taskgroup")->kind, DirectiveKind::kTaskgroup);
  EXPECT_EQ(parse_ok(" taskloop")->kind, DirectiveKind::kTaskloop);
}

TEST(DirectiveParserTest, DependClauseKindsAndItems) {
  auto d = parse_ok(" task depend(in: a, b) depend(out: c) depend(inout: x[i * 4])");
  ASSERT_EQ(d->depends.size(), 3u);
  EXPECT_EQ(d->depends[0].kind, DependKind::kIn);
  ASSERT_EQ(d->depends[0].items.size(), 2u);
  EXPECT_EQ(lang::dump_expr(*d->depends[0].items[0]), "a");
  EXPECT_EQ(lang::dump_expr(*d->depends[0].items[1]), "b");
  EXPECT_EQ(d->depends[1].kind, DependKind::kOut);
  EXPECT_EQ(d->depends[2].kind, DependKind::kInout);
  EXPECT_EQ(lang::dump_expr(*d->depends[2].items[0]), "(index x (* i 4))");
}

TEST(DirectiveParserTest, DependClauseErrors) {
  parse_fail(" task depend(mutexinout: a)", "unknown depend kind");
  parse_fail(" task depend(in a)", "':' after depend kind");
  parse_fail(" task depend(in:)", "depend");
  parse_fail(" task depend(in: a + b)", "variable or a slice element");
  parse_fail(" for depend(in: a)", "not valid");
  parse_fail(" taskloop depend(in: a)", "not valid");
  parse_fail(" taskgroup depend(out: a)", "not valid");
}

TEST(DirectiveParserTest, TaskFinalPriorityUntied) {
  auto d = parse_ok(" task final(n > 4) priority(2 * p) untied if(n > 0)");
  ASSERT_NE(d->final_clause, nullptr);
  EXPECT_EQ(lang::dump_expr(*d->final_clause), "(> n 4)");
  ASSERT_NE(d->priority, nullptr);
  EXPECT_EQ(lang::dump_expr(*d->priority), "(* 2 p)");
  EXPECT_TRUE(d->untied);
  parse_fail(" parallel final(true)", "not valid");
  parse_fail(" for priority(1)", "not valid");
  parse_fail(" single untied", "not valid");
  parse_fail(" task final(1) final(0)", "duplicate 'final'");
  parse_fail(" task priority(1) priority(2)", "duplicate 'priority'");
}

TEST(DirectiveParserTest, TaskloopChunkingClauses) {
  auto g = parse_ok(" taskloop grainsize(64) firstprivate(a) shared(b)");
  ASSERT_NE(g->grainsize, nullptr);
  EXPECT_EQ(g->grainsize->int_value, 64);
  EXPECT_EQ(g->firstprivate_vars, (std::vector<std::string>{"a"}));
  EXPECT_EQ(g->shared_vars, (std::vector<std::string>{"b"}));
  auto n = parse_ok(" taskloop num_tasks(t * 2)");
  ASSERT_NE(n->num_tasks, nullptr);
  EXPECT_EQ(lang::dump_expr(*n->num_tasks), "(* t 2)");
  parse_fail(" taskloop grainsize(4) num_tasks(2)", "mutually exclusive");
  parse_fail(" taskloop grainsize(4) grainsize(8)", "duplicate 'grainsize'");
  parse_fail(" taskloop num_tasks(4) num_tasks(8)", "duplicate 'num_tasks'");
  parse_fail(" for grainsize(4)", "not valid");
  parse_fail(" task num_tasks(4)", "not valid");
  parse_fail(" taskloop schedule(static)", "not valid");
}

TEST(DirectiveParserTest, CollapseDepths) {
  EXPECT_EQ(parse_ok(" for collapse(1)")->collapse, 1);
  EXPECT_EQ(parse_ok(" for collapse(2)")->collapse, 2);
  EXPECT_EQ(parse_ok(" parallel for collapse(3) schedule(dynamic)")->collapse,
            3);
  EXPECT_EQ(parse_ok(" for")->collapse, 1);  // absent means depth 1
}

TEST(DirectiveParserTest, CollapseErrors) {
  parse_fail(" for collapse(0)", "positive integer");
  parse_fail(" for collapse(n)", "positive integer");
  parse_fail(" for collapse(2, 3)", "positive integer");
  parse_fail(" for collapse(99)", "supported maximum");
  parse_fail(" parallel collapse(2)", "not valid");
  parse_fail(" single collapse(2)", "not valid");
}

TEST(DirectiveParserTest, DuplicateSingleValuedClausesRejected) {
  parse_fail(" for schedule(static) schedule(dynamic)", "duplicate 'schedule'");
  parse_fail(" for collapse(2) collapse(3)", "duplicate 'collapse'");
  parse_fail(" parallel num_threads(2) num_threads(4)",
             "duplicate 'num_threads'");
  parse_fail(" parallel if(true) if(false)", "duplicate 'if'");
  parse_fail(" parallel default(shared) default(none)", "duplicate 'default'");
  // Even an identical repetition is a duplicate, not a silent no-op.
  parse_fail(" for schedule(static) schedule(static)", "duplicate 'schedule'");
}

TEST(DirectiveParserTest, ListValuedClausesMayRepeat) {
  auto d = parse_ok(" parallel shared(a) shared(b) private(c) private(d)");
  EXPECT_EQ(d->shared_vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d->private_vars, (std::vector<std::string>{"c", "d"}));
}

TEST(DirectiveParserTest, OneDataSharingClausePerVariable) {
  // Checked on the whole clause list, before a combined form is split
  // between its region and its loop; a section counts under its base name.
  const char* const reduction = "reduction variable 'a' also appears";
  const char* const multiple = "variable 'a' appears in multiple";
  parse_fail(" parallel for reduction(+: a) lastprivate(a)", reduction);
  parse_fail(" for lastprivate(a) reduction(+: a)", reduction);
  parse_fail(" for reduction(+: a) reduction(max: a)", reduction);
  parse_fail(" parallel reduction(+: a) shared(a)", reduction);
  parse_fail(" parallel for reduction(+: a[0:4]) private(a)", reduction);
  parse_fail(" parallel for private(a) lastprivate(a)", multiple);
  parse_fail(" parallel shared(a) private(a)", multiple);
  parse_fail(" parallel private(a) firstprivate(a)", multiple);
  parse_fail(" task firstprivate(a) shared(a)", multiple);
  // firstprivate with lastprivate is the one allowed pair.
  auto d = parse_ok(" parallel for firstprivate(a) lastprivate(a)");
  EXPECT_EQ(d->lastprivate_vars, std::vector<std::string>{"a"});
  parse_ok(" parallel for lastprivate(a) firstprivate(a) reduction(+: b)");
}

TEST(DirectiveParserTest, UnbalancedParensRejected) {
  parse_fail(" parallel num_threads(2", "unbalanced");
}

TEST(DirectiveParserTest, UnknownClauseRejected) {
  parse_fail(" parallel fancy(3)", "unknown clause");
}

TEST(DirectiveParserTest, CancelConstructs) {
  auto d = parse_ok(" cancel parallel");
  EXPECT_EQ(d->kind, DirectiveKind::kCancel);
  EXPECT_EQ(d->cancel_construct, 1);  // ZOMP_CANCEL_PARALLEL
  EXPECT_EQ(parse_ok(" cancel for")->cancel_construct, 2);
  EXPECT_EQ(parse_ok(" cancel taskgroup")->cancel_construct, 4);

  auto p = parse_ok(" cancellation point for");
  EXPECT_EQ(p->kind, DirectiveKind::kCancellationPoint);
  EXPECT_EQ(p->cancel_construct, 2);
  EXPECT_EQ(parse_ok(" cancellation point parallel")->cancel_construct, 1);
  EXPECT_EQ(parse_ok(" cancellation point taskgroup")->cancel_construct, 4);

  // Both are standalone: they attach to the following statement in the
  // transform, like barrier and taskwait.
  EXPECT_TRUE(directive_is_standalone(DirectiveKind::kCancel));
  EXPECT_TRUE(directive_is_standalone(DirectiveKind::kCancellationPoint));
}

TEST(DirectiveParserTest, CancelErrors) {
  parse_fail(" cancel", "construct name after 'cancel'");
  parse_fail(" cancel sections", "unknown cancel construct");
  parse_fail(" cancel loop", "unknown cancel construct");
  parse_fail(" cancellation", "expected 'point' after 'cancellation'");
  parse_fail(" cancellation pointer", "expected 'point' after 'cancellation'");
  parse_fail(" cancellation point", "construct name after 'cancel'");
  // No clause is valid on cancel (the spec's if-clause is not supported and
  // is rejected rather than silently dropped).
  parse_fail(" cancel for nowait");
  parse_fail(" cancel parallel if(1)");
  parse_fail(" cancellation point for schedule(static)");
}

}  // namespace
}  // namespace zomp::core
