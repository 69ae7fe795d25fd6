// Source management and diagnostics for the MiniZig front end.
//
// MiniZig is the Zig-subset substrate this repo uses in place of the real Zig
// compiler (see DESIGN.md §2): the paper's contribution is exercised against
// it exactly as the original is exercised against Zig.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zomp::lang {

/// Byte offset + human coordinates into one source buffer.
struct SourceLoc {
  std::uint32_t offset = 0;
  std::uint32_t line = 1;  // 1-based
  std::uint32_t col = 1;   // 1-based

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// An owned source buffer with a display name.
class SourceFile {
 public:
  SourceFile(std::string name, std::string contents)
      : name_(std::move(name)), contents_(std::move(contents)) {}

  const std::string& name() const { return name_; }
  std::string_view contents() const { return contents_; }

  /// The full text of the line containing `loc` (no trailing newline); used
  /// for caret diagnostics.
  std::string_view line_text(const SourceLoc& loc) const;

 private:
  std::string name_;
  std::string contents_;
};

enum class Severity { kError, kWarning, kNote };

struct Diagnostic {
  Severity severity = Severity::kError;
  /// Empty for a diagnostic about the invocation rather than the source.
  std::optional<SourceLoc> loc;
  std::string message;
};

/// Collects diagnostics; the front end never throws across its API. Callers
/// check has_errors() after each phase.
class Diagnostics {
 public:
  void error(std::optional<SourceLoc> loc, std::string message) {
    sink_.push_back({Severity::kError, loc, std::move(message)});
    ++errors_;
  }
  void warning(SourceLoc loc, std::string message) {
    sink_.push_back({Severity::kWarning, loc, std::move(message)});
  }
  void note(SourceLoc loc, std::string message) {
    sink_.push_back({Severity::kNote, loc, std::move(message)});
  }

  bool has_errors() const { return errors_ > 0; }
  const std::vector<Diagnostic>& all() const { return sink_; }

  /// Renders every diagnostic as "file:line:col: severity: message" with a
  /// caret line, in emission order; one without a location renders as
  /// "severity: message" alone.
  std::string render(const SourceFile& file) const;

 private:
  std::vector<Diagnostic> sink_;
  int errors_ = 0;
};

}  // namespace zomp::lang
