#include "core/directive_parser.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lang/lexer.h"
#include "lang/parser.h"

namespace zomp::core {

using lang::Token;
using lang::TokenKind;

const char* directive_kind_name(DirectiveKind kind) {
  switch (kind) {
    case DirectiveKind::kParallel: return "parallel";
    case DirectiveKind::kFor: return "for";
    case DirectiveKind::kParallelFor: return "parallel for";
    case DirectiveKind::kBarrier: return "barrier";
    case DirectiveKind::kCritical: return "critical";
    case DirectiveKind::kSingle: return "single";
    case DirectiveKind::kMaster: return "master";
    case DirectiveKind::kAtomic: return "atomic";
    case DirectiveKind::kOrdered: return "ordered";
    case DirectiveKind::kTask: return "task";
    case DirectiveKind::kTaskwait: return "taskwait";
    case DirectiveKind::kTaskgroup: return "taskgroup";
    case DirectiveKind::kTaskloop: return "taskloop";
    case DirectiveKind::kCancel: return "cancel";
    case DirectiveKind::kCancellationPoint: return "cancellation point";
  }
  return "<invalid>";
}

namespace {

/// Token cursor over the directive payload. All diagnostics are reported at
/// the directive's comment location (clause text has no stable positions of
/// its own once it has been carved out of the comment).
class ClauseParser {
 public:
  ClauseParser(std::vector<Token> tokens, std::string payload,
               lang::SourceLoc loc, lang::Diagnostics& diags)
      : tokens_(std::move(tokens)),
        payload_(std::move(payload)),
        loc_(loc),
        diags_(diags) {}

  std::unique_ptr<Directive> parse() {
    auto directive = std::make_unique<Directive>();
    directive->loc = loc_;

    // Construct name: one or two leading identifiers.
    const std::string head = expect_word("directive name");
    if (head.empty()) return nullptr;
    if (head == "parallel") {
      if (peek_word() == "for") {
        advance();
        directive->kind = DirectiveKind::kParallelFor;
      } else {
        directive->kind = DirectiveKind::kParallel;
      }
    } else if (head == "for") {
      directive->kind = DirectiveKind::kFor;
    } else if (head == "barrier") {
      directive->kind = DirectiveKind::kBarrier;
    } else if (head == "critical") {
      directive->kind = DirectiveKind::kCritical;
      if (check(TokenKind::kLParen)) {
        advance();
        directive->critical_name = expect_word("critical section name");
        expect(TokenKind::kRParen, "')' after critical name");
      }
    } else if (head == "single") {
      directive->kind = DirectiveKind::kSingle;
    } else if (head == "master") {
      directive->kind = DirectiveKind::kMaster;
    } else if (head == "atomic") {
      directive->kind = DirectiveKind::kAtomic;
    } else if (head == "ordered") {
      directive->kind = DirectiveKind::kOrdered;
    } else if (head == "task") {
      directive->kind = DirectiveKind::kTask;
    } else if (head == "taskwait") {
      directive->kind = DirectiveKind::kTaskwait;
    } else if (head == "taskgroup") {
      directive->kind = DirectiveKind::kTaskgroup;
    } else if (head == "taskloop") {
      directive->kind = DirectiveKind::kTaskloop;
    } else if (head == "cancel") {
      directive->kind = DirectiveKind::kCancel;
      if (!parse_cancel_construct(*directive)) return nullptr;
    } else if (head == "cancellation") {
      // Two-word name, like "parallel for": `cancellation point <construct>`.
      if (peek_word() != "point") {
        error("expected 'point' after 'cancellation'");
        return nullptr;
      }
      advance();
      directive->kind = DirectiveKind::kCancellationPoint;
      if (!parse_cancel_construct(*directive)) return nullptr;
    } else {
      diags_.error(loc_, "unknown OpenMP directive '" + head + "'");
      return nullptr;
    }

    while (!at_end()) {
      if (!parse_clause(*directive)) return nullptr;
    }
    validate(*directive);
    return diags_ok_ ? std::move(directive) : nullptr;
  }

 private:
  bool at_end() const { return pos_ >= tokens_.size() || tokens_[pos_].is(TokenKind::kEof); }
  const Token& peek() const {
    static const Token eof{};
    return pos_ < tokens_.size() ? tokens_[pos_] : eof;
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool check(TokenKind kind) const { return peek().is(kind); }
  bool expect(TokenKind kind, const char* what) {
    if (check(kind)) {
      advance();
      return true;
    }
    error(std::string("expected ") + what + " in directive clause");
    return false;
  }
  /// Directive words may lex as MiniZig keywords ('for', 'if'); both count.
  static bool is_word(const Token& t) {
    return t.is(TokenKind::kIdentifier) ||
           (t.kind >= TokenKind::kKwFn && t.kind <= TokenKind::kKwUndefined);
  }
  std::string peek_word() const {
    return is_word(peek()) ? peek().text : std::string();
  }
  std::string expect_word(const char* what) {
    if (is_word(peek())) return advance().text;
    error(std::string("expected ") + what);
    return "";
  }
  void error(const std::string& message) {
    diags_.error(loc_, "in '#omp' directive: " + message);
    diags_ok_ = false;
    pos_ = tokens_.size();  // stop parsing this directive
  }

  /// `cancel` / `cancellation point` take a construct-type operand naming the
  /// enclosing construct they act on. Encoded as the ZOMP_CANCEL_* values.
  bool parse_cancel_construct(Directive& d) {
    const std::string word = expect_word("construct name after 'cancel'");
    if (word.empty()) return false;
    if (word == "parallel") {
      d.cancel_construct = 1;  // ZOMP_CANCEL_PARALLEL
    } else if (word == "for") {
      d.cancel_construct = 2;  // ZOMP_CANCEL_LOOP
    } else if (word == "taskgroup") {
      d.cancel_construct = 4;  // ZOMP_CANCEL_TASKGROUP
    } else {
      error("unknown cancel construct '" + word +
            "' (expected 'parallel', 'for' or 'taskgroup')");
      return false;
    }
    return true;
  }

  /// Collects the tokens of one balanced-paren clause argument, consuming
  /// the opening and closing parentheses. Stops at `stop` tokens at depth 0.
  std::vector<Token> collect_paren_arg() {
    std::vector<Token> out;
    if (!expect(TokenKind::kLParen, "'('")) return out;
    int depth = 1;
    while (!at_end()) {
      if (check(TokenKind::kLParen)) ++depth;
      if (check(TokenKind::kRParen)) {
        --depth;
        if (depth == 0) {
          advance();
          return out;
        }
      }
      out.push_back(advance());
    }
    error("unbalanced parentheses in clause");
    return out;
  }

  /// Splits `tokens` on top-level commas.
  static std::vector<std::vector<Token>> split_commas(std::vector<Token> tokens) {
    std::vector<std::vector<Token>> groups(1);
    int depth = 0;
    for (auto& t : tokens) {
      if (t.is(TokenKind::kLParen)) ++depth;
      if (t.is(TokenKind::kRParen)) --depth;
      if (depth == 0 && t.is(TokenKind::kComma)) {
        groups.emplace_back();
      } else {
        groups.back().push_back(std::move(t));
      }
    }
    return groups;
  }

  bool parse_name_list(std::vector<std::string>& out) {
    const std::vector<Token> arg = collect_paren_arg();
    if (!diags_ok_) return false;
    for (const auto& group : split_commas(arg)) {
      if (group.size() != 1 || !group[0].is(TokenKind::kIdentifier)) {
        error("expected a comma-separated list of variable names");
        return false;
      }
      out.push_back(group[0].text);
    }
    return true;
  }

  lang::ExprPtr parse_expr_arg() {
    std::vector<Token> arg = collect_paren_arg();
    if (!diags_ok_) return nullptr;
    for (auto& t : arg) t.loc = loc_;  // all clause errors point at the comment
    return lang::Parser::parse_expression(std::move(arg), diags_);
  }

  bool parse_reduction(Directive& d) {
    std::vector<Token> arg = collect_paren_arg();
    if (!diags_ok_) return false;
    // Grammar: op ':' list. The operator token set matches the paper's
    // clause support (arithmetic, min/max, bitwise, logical).
    if (arg.empty()) {
      error("empty reduction clause");
      return false;
    }
    ReductionClause clause;
    std::size_t i = 0;
    const Token& op = arg[i++];
    switch (op.kind) {
      case TokenKind::kPlus: clause.op = lang::ReduceOp::kAdd; break;
      case TokenKind::kMinus: clause.op = lang::ReduceOp::kSub; break;
      case TokenKind::kStar: clause.op = lang::ReduceOp::kMul; break;
      case TokenKind::kAmp: clause.op = lang::ReduceOp::kBitAnd; break;
      case TokenKind::kPipe: clause.op = lang::ReduceOp::kBitOr; break;
      case TokenKind::kCaret: clause.op = lang::ReduceOp::kBitXor; break;
      case TokenKind::kKwAnd: clause.op = lang::ReduceOp::kLogAnd; break;
      case TokenKind::kKwOr: clause.op = lang::ReduceOp::kLogOr; break;
      case TokenKind::kIdentifier:
        if (op.text == "min") {
          clause.op = lang::ReduceOp::kMin;
        } else if (op.text == "max") {
          clause.op = lang::ReduceOp::kMax;
        } else {
          error("unknown reduction operator '" + op.text + "'");
          return false;
        }
        break;
      default:
        error("unknown reduction operator");
        return false;
    }
    if (i >= arg.size() || !arg[i].is(TokenKind::kColon)) {
      error("expected ':' after reduction operator");
      return false;
    }
    ++i;
    std::vector<Token> rest(arg.begin() + static_cast<std::ptrdiff_t>(i), arg.end());
    for (const auto& group : split_commas(std::move(rest))) {
      if (!parse_reduction_item(group, clause)) return false;
    }
    if (clause.vars.empty()) {
      error("reduction clause lists no variables");
      return false;
    }
    d.reductions.push_back(std::move(clause));
    return true;
  }

  /// One reduction list item: `name`, or the array section `name[lo:len]`
  /// / `name[:len]`. The lower bound must be the literal 0 (or omitted) and
  /// the length an integer literal in [1, kMaxSectionLength].
  bool parse_reduction_item(const std::vector<Token>& group,
                            ReductionClause& clause) {
    if (group.size() == 1 && group[0].is(TokenKind::kIdentifier)) {
      clause.vars.push_back(group[0].text);
      clause.section_lens.push_back(0);
      return true;
    }
    if (group.size() < 4 || !group[0].is(TokenKind::kIdentifier) ||
        !group[1].is(TokenKind::kLBracket) ||
        !group.back().is(TokenKind::kRBracket)) {
      error("expected variable names or array sections 'name[0:len]' after "
            "':' in reduction");
      return false;
    }
    const std::string item = "reduction(" +
                             std::string(lang::reduce_op_spelling(clause.op)) +
                             ": " + spelling(group) + ")";
    const auto colon =
        std::find_if(group.begin() + 2, group.end() - 1,
                     [](const Token& t) { return t.is(TokenKind::kColon); });
    if (colon == group.end() - 1) {
      error(item + ": expected an array section 'name[0:len]'");
      return false;
    }
    const std::vector<Token> lower(group.begin() + 2, colon);
    const std::vector<Token> length(colon + 1, group.end() - 1);
    if (!lower.empty() && (lower.size() != 1 ||
                           !lower[0].is(TokenKind::kIntLiteral) ||
                           lower[0].int_value != 0)) {
      error(item + ": the array section's lower bound must be the literal 0");
      return false;
    }
    if (length.size() != 1 || !length[0].is(TokenKind::kIntLiteral) ||
        length[0].int_value < 1 ||
        length[0].int_value > kMaxSectionLength) {
      error(item + ": the array section's length must be an integer literal "
                   "from 1 to " + std::to_string(kMaxSectionLength));
      return false;
    }
    clause.vars.push_back(group[0].text);
    clause.section_lens.push_back(static_cast<int>(length[0].int_value));
    return true;
  }

  /// The payload text a run of tokens was lexed from.
  std::string spelling(const std::vector<Token>& group) const {
    const Token& last = group.back();
    const std::size_t begin = group.front().loc.offset;
    const std::size_t end =
        last.loc.offset + std::max<std::size_t>(1, last.text.size());
    return payload_.substr(begin, end - begin);
  }

  bool parse_schedule(Directive& d) {
    std::vector<Token> arg = collect_paren_arg();
    if (!diags_ok_) return false;
    auto groups = split_commas(std::move(arg));
    if (groups.empty() || groups[0].size() != 1 ||
        !groups[0][0].is(TokenKind::kIdentifier)) {
      error("expected schedule kind");
      return false;
    }
    const std::string& kind = groups[0][0].text;
    if (kind == "static") {
      d.schedule.kind = lang::ScheduleSpec::Kind::kStatic;
    } else if (kind == "dynamic") {
      d.schedule.kind = lang::ScheduleSpec::Kind::kDynamic;
    } else if (kind == "guided") {
      d.schedule.kind = lang::ScheduleSpec::Kind::kGuided;
    } else if (kind == "auto") {
      d.schedule.kind = lang::ScheduleSpec::Kind::kAuto;
    } else if (kind == "runtime") {
      d.schedule.kind = lang::ScheduleSpec::Kind::kRuntime;
    } else {
      error("unknown schedule kind '" + kind + "'");
      return false;
    }
    if (groups.size() > 1) {
      if (groups.size() > 2) {
        error("too many schedule arguments");
        return false;
      }
      std::vector<Token> chunk = groups[1];
      for (auto& t : chunk) t.loc = loc_;
      d.schedule.chunk = lang::Parser::parse_expression(std::move(chunk), diags_);
      if (d.schedule.kind == lang::ScheduleSpec::Kind::kRuntime ||
          d.schedule.kind == lang::ScheduleSpec::Kind::kAuto) {
        error("schedule(" + kind + ") takes no chunk argument");
        return false;
      }
    }
    return true;
  }

  /// depend(in|out|inout: items...) — items are lvalue expressions (variable
  /// names or slice elements), evaluated to addresses at task creation.
  bool parse_depend(Directive& d) {
    std::vector<Token> arg = collect_paren_arg();
    if (!diags_ok_) return false;
    if (arg.empty() || !is_word(arg[0])) {
      error("expected depend kind ('in', 'out' or 'inout')");
      return false;
    }
    DependClause clause;
    const std::string kind = arg[0].text;
    if (kind == "in") {
      clause.kind = DependKind::kIn;
    } else if (kind == "out") {
      clause.kind = DependKind::kOut;
    } else if (kind == "inout") {
      clause.kind = DependKind::kInout;
    } else {
      error("unknown depend kind '" + kind +
            "' (expected 'in', 'out' or 'inout')");
      return false;
    }
    if (arg.size() < 2 || !arg[1].is(TokenKind::kColon)) {
      error("expected ':' after depend kind");
      return false;
    }
    std::vector<Token> rest(arg.begin() + 2, arg.end());
    for (auto& group : split_commas(std::move(rest))) {
      if (group.empty()) {
        error("empty depend list item");
        return false;
      }
      for (auto& t : group) t.loc = loc_;
      lang::ExprPtr item = lang::Parser::parse_expression(std::move(group), diags_);
      if (item == nullptr) {
        diags_ok_ = false;
        return false;
      }
      if (item->kind != lang::Expr::Kind::kVarRef &&
          item->kind != lang::Expr::Kind::kIndex) {
        error("depend item must be a variable or a slice element (a[i])");
        return false;
      }
      clause.items.push_back(std::move(item));
    }
    if (clause.items.empty()) {
      error("depend clause lists no items");
      return false;
    }
    d.depends.push_back(std::move(clause));
    return true;
  }

  /// Rejects a second occurrence of a single-valued clause. The list-valued
  /// clauses (shared, private, reduction, depend, ...) legitimately repeat
  /// and accumulate; for the single-valued ones a silent last-wins would
  /// hide the contradiction from the user.
  bool once(const std::string& name) {
    if (!seen_clauses_.insert(name).second) {
      error("duplicate '" + name + "' clause");
      return false;
    }
    return true;
  }

  bool parse_clause(Directive& d) {
    const std::string name = expect_word("clause name");
    if (name.empty()) return false;
    if (name == "num_threads" || name == "if" || name == "default" ||
        name == "schedule" || name == "collapse" || name == "final" ||
        name == "priority" || name == "grainsize" || name == "num_tasks" ||
        name == "proc_bind") {
      if (!once(name)) return false;
    }
    if (name == "num_threads") {
      d.num_threads = parse_expr_arg();
      return d.num_threads != nullptr;
    }
    if (name == "proc_bind") {
      const std::vector<Token> arg = collect_paren_arg();
      if (!diags_ok_) return false;
      if (arg.size() != 1 || !is_word(arg[0])) {
        error("proc_bind(...) takes 'primary', 'master', 'close' or 'spread'");
        return false;
      }
      const std::string& kind = arg[0].text;
      if (kind == "primary" || kind == "master") {
        d.proc_bind = ProcBindKind::kPrimary;  // master is the 5.0 alias
      } else if (kind == "close") {
        d.proc_bind = ProcBindKind::kClose;
      } else if (kind == "spread") {
        d.proc_bind = ProcBindKind::kSpread;
      } else {
        error("unknown proc_bind kind '" + kind +
              "' (expected 'primary', 'master', 'close' or 'spread')");
        return false;
      }
      return true;
    }
    if (name == "if") {
      d.if_clause = parse_expr_arg();
      return d.if_clause != nullptr;
    }
    if (name == "default") {
      const std::vector<Token> arg = collect_paren_arg();
      if (arg.size() != 1 || !arg[0].is(TokenKind::kIdentifier) ||
          (arg[0].text != "shared" && arg[0].text != "none")) {
        error("default(...) must be 'shared' or 'none'");
        return false;
      }
      d.default_mode =
          arg[0].text == "shared" ? DefaultKind::kShared : DefaultKind::kNone;
      return true;
    }
    if (name == "shared") return parse_name_list(d.shared_vars);
    if (name == "private") return parse_name_list(d.private_vars);
    if (name == "firstprivate") return parse_name_list(d.firstprivate_vars);
    if (name == "lastprivate") return parse_name_list(d.lastprivate_vars);
    if (name == "reduction") return parse_reduction(d);
    if (name == "schedule") return parse_schedule(d);
    if (name == "nowait") {
      d.nowait = true;
      return true;
    }
    if (name == "ordered") {
      d.ordered = true;
      return true;
    }
    if (name == "collapse") {
      const std::vector<Token> arg = collect_paren_arg();
      if (arg.size() != 1 || !arg[0].is(TokenKind::kIntLiteral) ||
          arg[0].int_value < 1) {
        error("collapse(...) takes a positive integer literal");
        return false;
      }
      if (arg[0].int_value > kMaxCollapseDepth) {
        error("collapse depth " + std::to_string(arg[0].int_value) +
              " exceeds the supported maximum of " +
              std::to_string(kMaxCollapseDepth));
        return false;
      }
      d.collapse = static_cast<int>(arg[0].int_value);
      return true;
    }
    // Tasking clauses (DESIGN.md S1.7).
    if (name == "depend") return parse_depend(d);
    if (name == "final") {
      d.final_clause = parse_expr_arg();
      return d.final_clause != nullptr;
    }
    if (name == "priority") {
      d.priority = parse_expr_arg();
      return d.priority != nullptr;
    }
    if (name == "untied") {
      // Parse-and-document: zomp tasks run to completion on one thread, so
      // every task already satisfies tied-task scheduling constraints.
      d.untied = true;
      return true;
    }
    if (name == "grainsize") {
      d.grainsize = parse_expr_arg();
      return d.grainsize != nullptr;
    }
    if (name == "num_tasks") {
      d.num_tasks = parse_expr_arg();
      return d.num_tasks != nullptr;
    }
    // Partial support, paper-style: recognised-but-unimplemented clauses are
    // skipped with a warning rather than failing the build.
    if (name == "copyin" || name == "copyprivate" ||
        name == "linear" || name == "safelen" || name == "simdlen" ||
        name == "mergeable" || name == "allocate" || name == "nogroup") {
      diags_.warning(loc_, "clause '" + name + "' is not supported and was ignored");
      if (check(TokenKind::kLParen)) collect_paren_arg();
      return true;
    }
    error("unknown clause '" + name + "'");
    return false;
  }

  void validate(Directive& d) {
    auto reject = [&](bool present, const char* clause) {
      if (present) {
        error(std::string("clause '") + clause + "' is not valid on '" +
              directive_kind_name(d.kind) + "'");
      }
    };
    const bool is_parallel = d.kind == DirectiveKind::kParallel ||
                             d.kind == DirectiveKind::kParallelFor;
    const bool is_for =
        d.kind == DirectiveKind::kFor || d.kind == DirectiveKind::kParallelFor;
    const bool is_task = d.kind == DirectiveKind::kTask;
    // Data-sharing clauses are valid on both tasking constructs that create
    // tasks; depend/final/priority/untied stay task-only (depend-on-taskloop
    // in particular is rejected — chunk tasks of one taskloop are
    // unordered siblings by design).
    const bool is_tasking = is_task || d.kind == DirectiveKind::kTaskloop;
    if (!is_parallel) {
      reject(d.num_threads != nullptr, "num_threads");
      reject(d.proc_bind != ProcBindKind::kUnspecified, "proc_bind");
      reject(d.default_mode != DefaultKind::kUnspecified, "default");
      // `shared` is valid on task/taskloop as well as parallel (OpenMP 5.2).
      reject(!d.shared_vars.empty() && !is_tasking, "shared");
    }
    if (!is_parallel && !is_task) {
      reject(d.if_clause != nullptr, "if");
    }
    if (!is_parallel && !is_tasking) {
      reject(!d.private_vars.empty(), "private");
      reject(!d.firstprivate_vars.empty(), "firstprivate");
    }
    if (!is_task) {
      reject(!d.depends.empty(), "depend");
      reject(d.final_clause != nullptr, "final");
      reject(d.priority != nullptr, "priority");
      reject(d.untied, "untied");
    }
    if (d.kind != DirectiveKind::kTaskloop) {
      reject(d.grainsize != nullptr, "grainsize");
      reject(d.num_tasks != nullptr, "num_tasks");
    } else if (d.grainsize != nullptr && d.num_tasks != nullptr) {
      error(
          "'grainsize' and 'num_tasks' are mutually exclusive on 'taskloop'");
    }
    if (!is_for) {
      reject(d.schedule.kind != lang::ScheduleSpec::Kind::kUnspecified,
             "schedule");
      reject(d.collapse != 1, "collapse");
      reject(d.ordered, "ordered");
      reject(!d.lastprivate_vars.empty(), "lastprivate");
      reject(d.nowait && d.kind != DirectiveKind::kSingle, "nowait");
    }
    if (!is_parallel && !is_for) {
      reject(!d.reductions.empty(), "reduction");
    }
    if (d.kind == DirectiveKind::kParallelFor) {
      reject(d.nowait, "nowait");
    }
    if (d.ordered && d.nowait) {
      error("'ordered' cannot combine with 'nowait'");
    }
    check_one_clause_rule(d);
    // cancel/cancellation point take only the construct-type operand. Every
    // clause falls into one of the generic rejections above (they are neither
    // parallel, for, task nor taskloop kinds), so no dedicated block: the
    // spec's if-clause on cancel is likewise rejected rather than dropped.
  }

  /// OpenMP's one-clause rule, checked before a combined form is split: a
  /// variable appears at most once across private, firstprivate, shared,
  /// lastprivate and reduction, firstprivate with lastprivate being the one
  /// allowed pair. A section counts under its base name.
  void check_one_clause_rule(const Directive& d) {
    enum class Clause { kPrivate, kFirstprivate, kShared, kLastprivate,
                        kReduction };
    std::unordered_map<std::string, Clause> seen;
    auto claim = [&](const std::string& n, Clause clause) {
      const auto [it, fresh] = seen.emplace(n, clause);
      if (fresh) return;
      const Clause other = it->second;
      if (other == Clause::kFirstprivate && clause == Clause::kLastprivate) {
        return;
      }
      if (other == Clause::kReduction || clause == Clause::kReduction) {
        error("reduction variable '" + n + "' also appears in another clause");
      } else {
        error("variable '" + n + "' appears in multiple data-sharing clauses");
      }
    };
    for (const auto& n : d.private_vars) claim(n, Clause::kPrivate);
    for (const auto& n : d.firstprivate_vars) claim(n, Clause::kFirstprivate);
    for (const auto& n : d.shared_vars) claim(n, Clause::kShared);
    for (const auto& n : d.lastprivate_vars) claim(n, Clause::kLastprivate);
    for (const auto& r : d.reductions) {
      for (const auto& n : r.vars) claim(n, Clause::kReduction);
    }
  }

  /// Backends recompute collapse dimensions with 64-bit stride products;
  /// depth 7 already covers every realistic nest, and the bound keeps the
  /// synthesized prolog (4 locals per dimension) honest.
  static constexpr std::int64_t kMaxCollapseDepth = 7;

  /// Each member's private copy of a reduction array section lives on the
  /// member's stack, and the construct's pack holds it once per member.
  static constexpr std::int64_t kMaxSectionLength = 1024;

  std::vector<Token> tokens_;
  std::string payload_;
  std::size_t pos_ = 0;
  lang::SourceLoc loc_;
  lang::Diagnostics& diags_;
  bool diags_ok_ = true;
  std::unordered_set<std::string> seen_clauses_;
};

}  // namespace

std::unique_ptr<Directive> parse_directive(const std::string& text,
                                           lang::SourceLoc loc,
                                           lang::Diagnostics& diags) {
  // Tokenise the payload with the ordinary lexer; a scratch Diagnostics sink
  // keeps payload-relative locations from leaking into user-facing output.
  lang::SourceFile payload("<directive>", text);
  lang::Diagnostics lex_diags;
  lang::Lexer lexer(payload, lex_diags);
  std::vector<Token> tokens = lexer.lex();
  if (lex_diags.has_errors()) {
    diags.error(loc, "malformed '#omp' directive text");
    return nullptr;
  }
  ClauseParser parser(std::move(tokens), text, loc, diags);
  return parser.parse();
}

}  // namespace zomp::core
