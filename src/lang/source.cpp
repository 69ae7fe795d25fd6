#include "lang/source.h"

#include <sstream>

namespace zomp::lang {

std::string_view SourceFile::line_text(const SourceLoc& loc) const {
  const std::string_view text = contents_;
  if (loc.offset > text.size()) return {};
  std::size_t begin = loc.offset;
  while (begin > 0 && text[begin - 1] != '\n') --begin;
  std::size_t end = loc.offset;
  while (end < text.size() && text[end] != '\n') ++end;
  return text.substr(begin, end - begin);
}

std::string Diagnostics::render(const SourceFile& file) const {
  std::ostringstream out;
  for (const Diagnostic& d : sink_) {
    const char* severity = d.severity == Severity::kError     ? "error"
                           : d.severity == Severity::kWarning ? "warning"
                                                              : "note";
    if (!d.loc) {
      out << severity << ": " << d.message << '\n';
      continue;
    }
    out << file.name() << ':' << d.loc->line << ':' << d.loc->col << ": "
        << severity << ": " << d.message << '\n';
    const std::string_view line = file.line_text(*d.loc);
    if (!line.empty()) {
      out << "  " << line << "\n  ";
      for (std::uint32_t i = 1; i < d.loc->col; ++i) out << ' ';
      out << "^\n";
    }
  }
  return out.str();
}

}  // namespace zomp::lang
