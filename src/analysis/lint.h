// ConfigLint: static analysis over config source (CSL) and Gatekeeper
// project specs — the fourth layered defense of the paper's §3 pipeline,
// sitting in front of type-checking, validators, and canary. Where the
// compiler answers "does this config evaluate?", ConfigLint answers "does
// this config say what the author meant?": undefined names, dead Gatekeeper
// clauses, and 0% rollouts all evaluate fine and misbehave in production.
//
// Two rule families:
//
//   Language rules (Lxxx) — run over the config-language AST with a
//   scope-resolution pass that follows import_python()/import_thrift()
//   through the supplied FileReader, so cross-module name resolution matches
//   what the compiler will do at build time. What an import binds comes from
//   the analysis store's import composition, the one semdiff's G010 reads.
//
//   Gating rules (Gxxx) — run over Gatekeeper project JSON, reasoning about
//   each rule's restraint conjunction (contradictions, subsumption, dead
//   clauses, vacuous buckets) against the builtin restraint table
//   (RestraintRegistry::Builtin()).
//
// | Rule | Severity | Finding |
// |------|----------|---------|
// | L001 undefined-name      | error   | name never defined in any reachable scope |
// | L002 use-before-def      | error   | module-level use precedes the definition |
// | L003 unused-binding      | warning | binding written but never read |
// | L004 unused-import       | warning | imported symbol/module never used |
// | L005 duplicate-dict-key  | error   | dict literal repeats a constant key |
// | L006 shadowed-builtin    | warning | binding hides a builtin function |
// | L007 unreachable-code    | warning | statement after return/break/continue |
// | L008 call-arity          | error   | call mismatches a known def's signature |
// | L009 constant-condition  | warning | if/ternary condition is a literal |
// | L010 missing-import      | error   | import target or its include is absent |
// | G001 contradictory-restraints | error | X and NOT X in one conjunction |
// | G002 subsumed-rule       | warning | rule shadowed by earlier always-pass rule |
// | G003 dead-rule           | warning | conjunction or sampling can never pass |
// | G004 unknown-restraint-type | error | type is not a builtin restraint |
// | G005 duplicate-restraint | warning | identical restraint repeated in one rule |
// | G006 vacuous-bucket      | warning | id_mod/hash_range spans every user |
//
// The semantic differ (src/analysis/semdiff.h) adds the rules that need a
// commit and its closure: G007 (a symbol the commit adds that nothing
// reads), G008 (newly unreachable branch) and G010 (shadowed import). They
// are listed in Rules() for docs/--explain but emitted by
// SemanticDiffer::Classify, not by LintFile.

#ifndef SRC_ANALYSIS_LINT_H_
#define SRC_ANALYSIS_LINT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/analysis/store.h"
#include "src/lang/compiler.h"

namespace configerator {

class ConfigLint {
 public:
  // `reader` resolves imports for cross-module analysis; without one (or
  // when a target cannot be read) the affected checks degrade conservatively
  // instead of guessing. Parses and module surfaces come from an analysis
  // store the linter owns, so each file is parsed once and every file it
  // lints shares the surfaces of the modules they import.
  explicit ConfigLint(FileReader reader = nullptr);
  // Reads through `store` instead, sharing its parses and surfaces with the
  // compiler and the other analysis passes; it must outlive the linter.
  ConfigLint(FileReader reader, AnalysisStore& store);

  // Dispatches on path convention: ".cconf"/".cinc" → language rules,
  // "gatekeeper/*.json" → gating rules, anything else → no findings.
  std::vector<LintDiagnostic> LintFile(const std::string& path,
                                       const std::string& content);

  // Language rules over one CSL source file. A file that fails to parse
  // yields a single L000 parse-error diagnostic (the compiler will reject it
  // with full detail; lint just flags it).
  std::vector<LintDiagnostic> LintSource(const std::string& path,
                                         const std::string& content);

  // Gating rules over one Gatekeeper project JSON.
  std::vector<LintDiagnostic> LintGatekeeper(const std::string& path,
                                             const std::string& content) const;

  // The full rule table, for documentation and tooling.
  static const std::vector<LintRuleInfo>& Rules();

 private:
  FileReader reader_;
  std::unique_ptr<AnalysisStore> owned_store_;  // Null when given one.
  AnalysisStore* store_;
};

}  // namespace configerator

#endif  // SRC_ANALYSIS_LINT_H_
