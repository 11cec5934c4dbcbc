#include "src/analysis/lint.h"

#include <algorithm>

#include "src/analysis/rules.h"
#include "src/gatekeeper/compile.h"
#include "src/json/json.h"

namespace configerator {

ConfigLint::ConfigLint(FileReader reader, const RestraintRegistry* registry)
    : reader_(std::move(reader)), registry_(registry) {}

std::vector<LintDiagnostic> ConfigLint::LintFile(
    const std::string& path, const std::string& content) const {
  if (path.ends_with(".cconf") || path.ends_with(".cinc")) {
    return LintSource(path, content);
  }
  if (GatekeeperProjectAt(path).has_value()) {
    return LintGatekeeper(path, content);
  }
  return {};
}

std::vector<LintDiagnostic> ConfigLint::LintSource(
    const std::string& path, const std::string& content) const {
  std::vector<LintDiagnostic> diags;
  auto module = ast_cache_ != nullptr
                    ? ast_cache_->GetOrParse(path, content, &diags)
                    : ParseCsl(content, path, &diags);
  if (!module.ok()) {
    // The compiler rejects the file with the full parse error; lint only
    // records that analysis could not run.
    LintDiagnostic diag;
    diag.rule_id = "L000";
    diag.severity = LintSeverity::kError;
    diag.file = path;
    diag.message = "file does not parse: " + module.status().message();
    diags.push_back(std::move(diag));
    return diags;
  }
  analysis::RunLanguageRules(**module, reader_, &diags, ast_cache_);
  SortDiagnostics(&diags);
  return diags;
}

std::vector<LintDiagnostic> ConfigLint::LintGatekeeper(
    const std::string& path, const std::string& content) const {
  std::vector<LintDiagnostic> diags;
  auto config = Json::Parse(content);
  if (!config.ok()) {
    // Malformed JSON is Sandcastle's raw validators' finding, not lint's.
    return diags;
  }
  analysis::RunGatingRules(path, *config, *registry_, &diags);
  return diags;
}

const std::vector<LintRuleInfo>& ConfigLint::Rules() {
  static const std::vector<LintRuleInfo>* rules = new std::vector<LintRuleInfo>{
      {"L000", "parse-error", LintSeverity::kError,
       "source file does not parse; language analysis could not run"},
      {"L001", "undefined-name", LintSeverity::kError,
       "name is never defined in any reachable scope, import, or builtin"},
      {"L002", "use-before-def", LintSeverity::kError,
       "module-level use executes before the name's definition"},
      {"L003", "unused-binding", LintSeverity::kWarning,
       "binding is written but never read"},
      {"L004", "unused-import", LintSeverity::kWarning,
       "imported symbol (or whole imported module) is never used"},
      {"L005", "duplicate-dict-key", LintSeverity::kError,
       "dict literal repeats a constant key; the earlier value is dead"},
      {"L006", "shadowed-builtin", LintSeverity::kWarning,
       "binding hides a builtin function"},
      {"L007", "unreachable-code", LintSeverity::kWarning,
       "statement can never execute (follows return/break/continue)"},
      {"L008", "call-arity", LintSeverity::kError,
       "call does not match the known function definition's signature"},
      {"L009", "constant-condition", LintSeverity::kWarning,
       "if/ternary condition is a literal, so one branch is dead"},
      {"G001", "contradictory-restraints", LintSeverity::kError,
       "a conjunction contains a restraint and its own negation"},
      {"G002", "subsumed-rule", LintSeverity::kWarning,
       "rule follows an always-passing rule and can never be reached"},
      {"G003", "dead-rule", LintSeverity::kWarning,
       "rule can never pass (always-false restraint or 0% sampling)"},
      {"G004", "unknown-restraint-type", LintSeverity::kError,
       "restraint type is not registered in the RestraintRegistry"},
      {"G005", "duplicate-restraint", LintSeverity::kWarning,
       "identical restraint repeated inside one conjunction"},
      {"G006", "vacuous-bucket", LintSeverity::kWarning,
       "id_mod/hash_range bucket spans all users and filters nothing"},
      {"G007", "dead-export", LintSeverity::kWarning,
       "module symbol has no consumer anywhere in the repository"},
      {"G008", "unreachable-branch", LintSeverity::kWarning,
       "branch condition is statically decided under every schema-valid "
       "context (via cross-module constant flow)"},
      {"G009", "stale-restraint-reference", LintSeverity::kError,
       "a Gatekeeper project in the analyzed closure references a restraint "
       "type no longer in the RestraintRegistry"},
      {"G010", "shadowed-import", LintSeverity::kError,
       "a later import silently rebinds a name an earlier import already "
       "bound (star-import surface growth hazard)"},
  };
  return *rules;
}

}  // namespace configerator
