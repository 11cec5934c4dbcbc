#include "src/pipeline/ci.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "src/canary/canary.h"
#include "src/gatekeeper/compile.h"
#include "src/lang/unit_cache.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace configerator {

Sandcastle::Sandcastle(const Repository* repo, const DependencyService* deps)
    : repo_(repo),
      deps_(deps),
      unit_cache_(std::make_unique<CompiledUnitCache>()) {
  // Builtin raw-config validators, keyed by path convention. Ordering
  // matters: the most specific check that applies decides.
  raw_validators_.push_back(
      [](const std::string& path, const std::string& content) -> Status {
        if (!GatekeeperProjectAt(path).has_value()) {
          return OkStatus();
        }
        return CompileProjectFile(path, content).status();
      });
  raw_validators_.push_back(
      [](const std::string& path, const std::string& content) -> Status {
        if (!path.ends_with(".canary.json")) {
          return OkStatus();
        }
        ASSIGN_OR_RETURN(Json json, Json::Parse(content));
        ASSIGN_OR_RETURN(CanarySpec spec, CanarySpec::FromJson(json));
        (void)spec;
        return OkStatus();
      });
  raw_validators_.push_back(
      [](const std::string& path, const std::string& content) -> Status {
        if (!path.starts_with("invariants/") || !path.ends_with(".json")) {
          return OkStatus();
        }
        // A spec file must parse with zero I000s: a malformed invariant is a
        // silently-unenforced invariant, which must not land.
        InvariantRegistry registry;
        registry.AddSpecFile(path, content);
        if (!registry.diagnostics.empty()) {
          return InvalidConfigError(registry.diagnostics.front().message);
        }
        return OkStatus();
      });
  raw_validators_.push_back(
      [](const std::string& path, const std::string& content) -> Status {
        if (!path.ends_with(".json")) {
          return OkStatus();
        }
        ASSIGN_OR_RETURN(Json json, Json::Parse(content));
        (void)json;
        return OkStatus();
      });
}

Sandcastle::~Sandcastle() = default;

void Sandcastle::RegisterRawValidator(RawValidator validator) {
  raw_validators_.push_back(std::move(validator));
}

std::string CiReport::Summary() const {
  std::string out = passed ? "PASS" : "FAIL";
  out += StrFormat(": %zu entries recompiled", compiled_entries.size());
  if (!reanalyzed_entries.empty() || pruned_dependents > 0) {
    out += StrFormat("; %zu dependent(s) re-analyzed, %zu pruned by symbol "
                     "slices",
                     reanalyzed_entries.size(), pruned_dependents);
  }
  if (closure_truncated) {
    out += " (closure truncated)";
  }
  if (!semantic_impacts.empty()) {
    size_t counts[4] = {0, 0, 0, 0};
    for (const SymbolImpact& impact : semantic_impacts) {
      ++counts[impact.severity()];
    }
    out += StrFormat(
        "; semdiff: %zu no-op, %zu value-delta, %zu control-shift, %zu "
        "type-change",
        counts[0], counts[1], counts[2], counts[3]);
  }
  if (provably_noop) {
    out += " (provably no-op: closure re-analysis skipped)";
  }
  if (!invariant_outcomes.empty()) {
    size_t violated = 0;
    for (const InvariantOutcome& outcome : invariant_outcomes) {
      if (outcome.status == InvariantStatus::kViolated) {
        ++violated;
      }
    }
    out += StrFormat("; invariants: %zu proven, %zu violated, %zu in-jeopardy",
                     invariants_proven, violated, invariants_in_jeopardy);
  }
  if (!lint_findings.empty()) {
    out += StrFormat("; lint: %zu error(s), %zu warning(s)", lint_errors(),
                     lint_warnings());
  }
  for (const std::string& failure : failures) {
    out += "\n  " + failure;
  }
  for (const LintDiagnostic& finding : lint_findings) {
    out += "\n  " + finding.Format();
  }
  return out;
}

FileReader Sandcastle::OverlayReader(const ProposedDiff& diff) const {
  // Copy the diff's writes into the closure: the reader may outlive the call.
  auto overlay = std::make_shared<std::map<std::string, std::optional<std::string>>>();
  for (const FileWrite& write : diff.writes) {
    (*overlay)[write.path] = write.content;
  }
  const Repository* repo = repo_;
  return [overlay, repo](const std::string& path) -> Result<std::string> {
    auto it = overlay->find(path);
    if (it != overlay->end()) {
      if (!it->second.has_value()) {
        return NotFoundError("deleted in diff: " + path);
      }
      return *it->second;
    }
    return repo->ReadFile(path);
  };
}

CiReport Sandcastle::RunTests(const ProposedDiff& diff) const {
  CiReport report;
  // Entries to rebuild: every known entry affected by a touched path, plus
  // touched .cconf files themselves (they may be new entries).
  std::vector<std::string> changed;
  changed.reserve(diff.writes.size());
  for (const FileWrite& write : diff.writes) {
    changed.push_back(write.path);
  }
  std::set<std::string> entries;
  for (const std::string& entry : deps_->EntriesAffectedBy(changed)) {
    entries.insert(entry);
  }
  for (const FileWrite& write : diff.writes) {
    if (write.path.ends_with(".cconf") && write.content.has_value()) {
      entries.insert(write.path);
    }
    if (!write.content.has_value()) {
      // An entry deleted by this diff no longer needs to compile.
      entries.erase(write.path);
    }
  }

  CompilerOptions compiler_options;
  compiler_options.unit_cache = unit_cache_.get();
  compiler_options.metrics = metrics_;
  ConfigCompiler compiler(OverlayReader(diff), compiler_options);
  report.passed = true;
  for (const std::string& entry : entries) {
    auto output = compiler.Compile(entry);
    if (output.ok()) {
      report.compiled_entries.push_back(entry);
    } else {
      report.passed = false;
      report.failures.push_back(entry + ": " + output.status().ToString());
    }
  }

  // Raw-config validation for every written path (compiled outputs included
  // — a malformed generated JSON would indicate a compiler bug).
  for (const FileWrite& write : diff.writes) {
    if (!write.content.has_value()) {
      continue;
    }
    for (const RawValidator& validator : raw_validators_) {
      Status status = validator(write.path, *write.content);
      if (!status.ok()) {
        report.passed = false;
        report.failures.push_back(write.path + ": " + status.ToString());
        break;  // One failure per path is enough signal.
      }
    }
  }

  // Static analysis over everything the diff touches, then over the reverse
  // dependency closure — untouched entries the change can still break.
  // Error-severity findings block the diff just like a failing compile;
  // warnings are advisory unless strict lint is on.
  report.lint_findings = RunLint(diff);

  // Semantic diff: classify every impacted symbol (head tree vs overlay)
  // and attach the classification to the landing. The differ's gating
  // findings (G007–G010) ride the same lint stream and can block.
  std::set<std::string> closure = PrunedClosure(diff, &report);
  const Repository* repo = repo_;
  FileReader head_reader = [repo](const std::string& path) {
    return repo->ReadFile(path);
  };
  SemanticDiffer differ(head_reader, OverlayReader(diff));
  SemanticDiffReport semdiff = differ.Classify(
      changed, std::vector<std::string>(closure.begin(), closure.end()));
  report.semantic_impacts = semdiff.impacts;
  report.provably_noop = semdiff.provably_noop;
  report.lint_findings.insert(report.lint_findings.end(),
                              semdiff.findings.begin(),
                              semdiff.findings.end());

  if (report.provably_noop) {
    // Certified no-op (comment/reformat-only): the reverse closure cannot
    // observe it, so skip re-analyzing it.
    CLOG(Info) << "Sandcastle: diff is provably no-op; skipping reverse-"
               << "closure re-analysis of " << closure.size()
               << " dependent(s)";
  } else {
    ReanalyzeClosure(diff, closure, &report);
  }

  // Cross-config invariants over the blast radius. A provably-no-op diff
  // cannot change any exported value, so re-verification is skipped — unless
  // the diff edits an invariant spec itself (then the *predicates* changed
  // even though no config value did), or touches a path the no-op
  // certificate does not cover: the semantic differ only certifies CSL
  // sources and Gatekeeper projects, so any other write (a raw JSON config,
  // say) can change invariant inputs while leaving the certificate intact.
  bool touches_invariants = false;
  bool outside_certificate = false;
  for (const FileWrite& write : diff.writes) {
    if (write.path.starts_with("invariants/")) {
      touches_invariants = true;
    }
    bool certified = write.path.ends_with(".cconf") ||
                     write.path.ends_with(".cinc") ||
                     GatekeeperProjectAt(write.path).has_value();
    if (!certified || !write.content.has_value()) {
      outside_certificate = true;
    }
  }
  if (!report.provably_noop || touches_invariants || outside_certificate) {
    std::set<std::string> scope;
    for (const std::string& path : changed) {
      scope.insert(path);
    }
    for (const std::string& entry : report.compiled_entries) {
      scope.insert(ConfigCompiler::OutputPathFor(entry));
    }
    for (const std::string& entry : closure) {
      scope.insert(ConfigCompiler::OutputPathFor(entry));
    }
    RunInvariants(diff, scope, &report);
  } else if (report.provably_noop) {
    CLOG(Info) << "Sandcastle: provably no-op diff; invariant re-verification "
               << "skipped";
  }

  if (report.lint_errors() > 0 ||
      (strict_lint_ && !report.lint_findings.empty())) {
    report.passed = false;
  }
  return report;
}

std::map<std::string, std::optional<std::set<std::string>>> DiffChangedSymbols(
    const Repository& repo, const ProposedDiff& diff, AstCache* ast_cache) {
  std::map<std::string, std::optional<std::set<std::string>>> changed;
  for (const FileWrite& write : diff.writes) {
    const std::string& path = write.path;
    if (!path.ends_with(".cconf") && !path.ends_with(".cinc")) {
      continue;  // Schema/JSON edits have no CSL symbol surface.
    }
    auto head = repo.ReadFile(path);
    if (!head.ok() || !write.content.has_value()) {
      changed[path] = std::nullopt;  // Added or deleted: file-level.
      continue;
    }
    changed[path] =
        ChangedSymbols(ComputeSymbolSurface(path, *head),
                       ComputeSymbolSurface(path, *write.content, ast_cache));
  }
  return changed;
}

std::set<std::string> Sandcastle::PrunedClosure(const ProposedDiff& diff,
                                                CiReport* report) const {
  // The file-level reverse closure, then the symbol-pruned one. The
  // difference is the pruning win: dependents whose slice proves the edit
  // can't reach them.
  auto changed_symbols = DiffChangedSymbols(*repo_, diff);
  std::set<std::string> file_level;
  std::set<std::string> closure;
  for (const FileWrite& write : diff.writes) {
    for (const std::string& entry : deps_->EntriesAffectedBy({write.path})) {
      file_level.insert(entry);
    }
    auto it = changed_symbols.find(write.path);
    if (it != changed_symbols.end() && it->second.has_value()) {
      for (const std::string& entry :
           deps_->EntriesAffectedBySymbols(write.path, *it->second)) {
        closure.insert(entry);
      }
    } else {
      for (const std::string& entry : deps_->EntriesAffectedBy({write.path})) {
        closure.insert(entry);
      }
    }
  }
  report->pruned_dependents = file_level.size() - closure.size();
  return closure;
}

void Sandcastle::ReanalyzeClosure(const ProposedDiff& diff,
                                  CiReport* report) const {
  ReanalyzeClosure(diff, PrunedClosure(diff, report), report);
}

void Sandcastle::ReanalyzeClosure(const ProposedDiff& diff,
                                  const std::set<std::string>& closure,
                                  CiReport* report) const {
  std::set<std::string> touched;
  for (const FileWrite& write : diff.writes) {
    touched.insert(write.path);
  }

  FileReader overlay = OverlayReader(diff);
  // One parse per (path, content) across the lint and absint passes: the
  // linter and the interpreter walk the same overlay closure.
  AstCache ast_cache;
  ConfigLint linter(overlay);
  linter.set_ast_cache(&ast_cache);
  AbstractInterpreter absint(overlay);
  absint.set_ast_cache(&ast_cache);

  // Touched CSL files get the semantic pass unconditionally (RunLint already
  // ran the syntactic rules on them).
  for (const std::string& path : touched) {
    if (!path.ends_with(".cconf") && !path.ends_with(".cinc")) {
      continue;
    }
    auto content = overlay(path);
    if (!content.ok()) {
      continue;  // Deleted in the diff.
    }
    AbsintResult result = absint.Analyze(path, *content);
    report->lint_findings.insert(report->lint_findings.end(),
                                 result.diagnostics.begin(),
                                 result.diagnostics.end());
  }

  // Untouched dependents: full re-lint + re-interpretation through the
  // overlay, so both syntactic and semantic breakage caused *by the diff*
  // surfaces here, capped to keep one shared-file edit from re-analyzing
  // the world.
  size_t analyzed = 0;
  for (const std::string& entry : closure) {
    if (touched.count(entry) > 0) {
      continue;
    }
    if (analyzed >= max_closure_) {
      report->closure_truncated = true;
      CLOG(Warning) << "Sandcastle: reverse-closure re-analysis truncated at "
                    << max_closure_ << " of " << closure.size()
                    << " dependent entries; remaining dependents were not "
                    << "re-analyzed";
      break;
    }
    auto content = overlay(entry);
    if (!content.ok()) {
      continue;
    }
    ++analyzed;
    report->reanalyzed_entries.push_back(entry);
    std::vector<LintDiagnostic> lint_findings =
        linter.LintFile(entry, *content);
    report->lint_findings.insert(
        report->lint_findings.end(),
        std::make_move_iterator(lint_findings.begin()),
        std::make_move_iterator(lint_findings.end()));
    AbsintResult result = absint.Analyze(entry, *content);
    report->lint_findings.insert(report->lint_findings.end(),
                                 result.diagnostics.begin(),
                                 result.diagnostics.end());
  }
}

void Sandcastle::RunInvariants(const ProposedDiff& diff,
                               const std::set<std::string>& scope,
                               CiReport* report) const {
  // The spec set: every "invariants/" file at head plus any the diff adds.
  // Files the diff deletes drop out naturally — Load skips unreadable paths,
  // and the overlay reports deleted files as not found.
  std::set<std::string> spec_files;
  for (const std::string& file : repo_->ListFilesUnder("invariants/")) {
    spec_files.insert(file);
  }
  for (const FileWrite& write : diff.writes) {
    if (write.path.starts_with("invariants/")) {
      spec_files.insert(write.path);
    }
  }
  if (spec_files.empty()) {
    return;
  }
  FileReader overlay = OverlayReader(diff);
  InvariantRegistry registry = InvariantRegistry::Load(
      overlay,
      std::vector<std::string>(spec_files.begin(), spec_files.end()));
  InvariantChecker checker(overlay);
  InvariantReport result = checker.Check(registry, scope);
  report->invariants_proven = result.proven;
  report->invariants_in_jeopardy = result.in_jeopardy;
  if (result.violated > 0) {
    CLOG(Warning) << "Sandcastle: " << result.violated
                  << " cross-config invariant(s) violated by this diff";
  }
  report->lint_findings.insert(report->lint_findings.end(),
                               std::make_move_iterator(
                                   result.diagnostics.begin()),
                               std::make_move_iterator(
                                   result.diagnostics.end()));
  report->invariant_outcomes = std::move(result.outcomes);
}

std::vector<LintDiagnostic> Sandcastle::RunLint(const ProposedDiff& diff) const {
  // Imports resolve through the overlay: a finding (or its absence) reflects
  // the tree as it would look with the diff applied.
  ConfigLint linter(OverlayReader(diff));
  AstCache ast_cache;
  linter.set_ast_cache(&ast_cache);
  std::vector<LintDiagnostic> findings;
  for (const FileWrite& write : diff.writes) {
    if (!write.content.has_value()) {
      continue;  // Deletions have no content to lint.
    }
    std::vector<LintDiagnostic> file_findings =
        linter.LintFile(write.path, *write.content);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

}  // namespace configerator
