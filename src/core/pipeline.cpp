#include "core/pipeline.h"

#include <algorithm>

#include "lang/lexer.h"
#include "lang/parser.h"

namespace zomp::core {

CompileResult compile_source(std::string source, const CompileOptions& options) {
  CompileResult result;
  result.file = std::make_unique<lang::SourceFile>(options.module_name + ".mz",
                                                   std::move(source));

  PassManager pm;
  build_default_pipeline(pm, options.opt_level, options.openmp);
  // A name this pipeline never runs would otherwise dump nothing and pass
  // for an empty dump.
  const std::vector<std::string> passes = pm.pass_names();
  for (const std::string& name : options.dump_ir) {
    if (name == "all" ||
        std::find(passes.begin(), passes.end(), name) != passes.end()) {
      continue;
    }
    std::string valid;
    for (const std::string& pass : passes) valid += pass + ", ";
    result.diags.error({}, "--dump-ir: no pass named '" + name +
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

  const bool dump_all =
      std::find(options.dump_ir.begin(), options.dump_ir.end(), "all") !=
      options.dump_ir.end();
  PassManager::DumpHook hook;
  if (!options.dump_ir.empty()) {
    hook = [&](const std::string& pass, const lang::Module& module) {
      if (dump_all || std::find(options.dump_ir.begin(), options.dump_ir.end(),
                                pass) != options.dump_ir.end()) {
        result.ir_dumps.emplace_back(pass, lang::dump_ast(module));
      }
    };
  }

  if (!pm.run(*result.module, result.diags, result.pass_stats, hook)) {
    result.stats = result.pass_stats.transform;
    return result;
  }
  result.stats = result.pass_stats.transform;
  result.ok = true;
  return result;
}

}  // namespace zomp::core
