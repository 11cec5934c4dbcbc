// Structured diagnostics emitted by ConfigLint (and by the config-language
// parser for issues that are detectable during parsing, e.g. duplicate dict
// keys). A diagnostic pinpoints a finding without aborting whatever produced
// it: the linter accumulates them, Sandcastle posts them to the review, and
// only error-severity findings block landing.

#ifndef SRC_ANALYSIS_DIAGNOSTIC_H_
#define SRC_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

namespace configerator {

enum class LintSeverity {
  kWarning,  // Advisory: posted to the review, never blocks landing.
  kError,    // Blocks landing through Sandcastle.
};

std::string_view LintSeverityName(LintSeverity severity);

struct LintDiagnostic {
  std::string rule_id;   // Stable id, e.g. "L001" / "G003".
  LintSeverity severity = LintSeverity::kWarning;
  std::string file;
  int line = 0;          // 1-based; 0 = whole file (JSON configs).
  int column = 0;        // 1-based; 0 = line granularity (most rules).
  std::string message;
  std::string suggestion;  // Optional suggested fix; may be empty.

  // "file:line: severity [rule] message (fix: suggestion)"; the column is
  // included ("file:line:col") only when one was recorded.
  std::string Format() const;
};

// Static description of one lint rule (drives docs and --explain output).
struct LintRuleInfo {
  std::string_view id;
  std::string_view name;
  LintSeverity severity;
  std::string_view summary;
};

// The canonical diagnostic ordering: file, line, column, message, rule id,
// suggestion — rule id breaks ties only after column+message, so two rules
// firing on the same line order the same way regardless of which producer
// emitted them first. Total over distinct findings, so any producer sorting
// with it emits byte-stable output — Sandcastle reports and semantic-diff
// findings can be diffed textually across runs and libstdc++ versions.
bool LintDiagnosticOrder(const LintDiagnostic& a, const LintDiagnostic& b);

// Sorts with LintDiagnosticOrder (stable, so fully-equal findings keep
// their emission order).
void SortDiagnostics(std::vector<LintDiagnostic>* diags);

// Counts error-severity findings in `diags`.
size_t CountLintErrors(const std::vector<LintDiagnostic>& diags);

}  // namespace configerator

#endif  // SRC_ANALYSIS_DIAGNOSTIC_H_
