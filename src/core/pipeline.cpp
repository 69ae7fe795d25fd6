#include "core/pipeline.h"

#include <algorithm>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace zomp::core {

CompileResult compile_source(std::string source, const CompileOptions& options) {
  CompileResult result;
  result.file = std::make_unique<lang::SourceFile>(options.module_name + ".mz",
                                                   std::move(source));

  // A name this pipeline never runs would otherwise dump nothing and pass
  // for an empty dump.
  std::vector<std::string> stages;
  if (options.openmp) stages.push_back("omp-lower");
  stages.push_back("sema");
  auto wanted = [&](const std::string& name) {
    return std::find(options.dump_ir.begin(), options.dump_ir.end(), name) !=
           options.dump_ir.end();
  };
  for (const std::string& name : options.dump_ir) {
    if (name == "all" ||
        std::find(stages.begin(), stages.end(), name) != stages.end()) {
      continue;
    }
    std::string valid;
    for (const std::string& stage : stages) valid += stage + ", ";
    result.diags.error(std::nullopt, "--dump-ir: no pass named '" + name +
                               "' in this pipeline (valid: " + valid +
                               "all)");
  }
  if (result.diags.has_errors()) return result;

  lang::Lexer lexer(*result.file, result.diags);
  std::vector<lang::Token> tokens = lexer.lex();
  if (result.diags.has_errors()) return result;

  lang::Parser parser(std::move(tokens), result.diags);
  result.module = parser.parse_module(options.module_name);
  if (result.diags.has_errors()) return result;

  auto record = [&](const std::string& stage) {
    if (wanted("all") || wanted(stage)) {
      result.ir_dumps.emplace_back(stage, lang::dump_ast(*result.module));
    }
  };
  if (options.openmp) {
    if (!apply_openmp(*result.module, result.diags, &result.stats) ||
        result.diags.has_errors()) {
      return result;
    }
    record("omp-lower");
  }
  if (!lang::analyze(*result.module, result.diags) ||
      result.diags.has_errors()) {
    return result;
  }
  record("sema");
  result.ok = true;
  return result;
}

}  // namespace zomp::core
