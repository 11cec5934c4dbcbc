#include "src/pipeline/ci.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "src/canary/canary.h"
#include "src/gatekeeper/compile.h"
#include "src/lang/unit_cache.h"
#include "src/schema/schema.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

// The raw-config validator: every check whose path convention applies, in
// order; the first failure decides. `reader` reads the tree with the diff
// applied.
Status ValidateRawConfig(const std::string& path, const std::string& content,
                         const FileReader& reader) {
  if (path.ends_with(".thrift")) {
    // A schema must load, includes and all, before anything imports it: an
    // include cycle would otherwise land and fail every later compile.
    SchemaRegistry registry;
    RETURN_IF_ERROR(registry.Load(path, reader));
  }
  if (GatekeeperProjectAt(path).has_value()) {
    RETURN_IF_ERROR(CompileProjectFile(path, content).status());
  }
  if (path.ends_with(".canary.json")) {
    ASSIGN_OR_RETURN(Json json, Json::Parse(content));
    RETURN_IF_ERROR(CanarySpec::FromJson(json).status());
  }
  if (path.starts_with("invariants/") && path.ends_with(".json")) {
    // A spec file must parse with zero I000s: a malformed invariant is a
    // silently-unenforced invariant, which must not land.
    InvariantRegistry registry;
    registry.AddSpecFile(path, content);
    if (!registry.diagnostics.empty()) {
      return InvalidConfigError(registry.diagnostics.front().message);
    }
  }
  if (path.ends_with(".json")) {
    RETURN_IF_ERROR(Json::Parse(content).status());
  }
  return OkStatus();
}

}  // namespace

Sandcastle::Sandcastle(const Repository* repo, const DependencyService* deps,
                       MetricsRegistry* metrics)
    : repo_(repo),
      deps_(deps),
      metrics_(metrics),
      store_(std::make_unique<AnalysisStore>()) {}

Sandcastle::~Sandcastle() = default;

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

ConfigCompiler Sandcastle::Compiler(FileReader reader) {
  CompilerOptions options;
  options.unit_cache = &store_->units();
  options.metrics = metrics_;
  return ConfigCompiler(std::move(reader), options);
}

CiReport Sandcastle::RunTests(const ProposedDiff& diff) {
  CiReport report;
  // Entries to rebuild: every known entry affected by a touched path, the
  // touched .cconf files themselves (they may be new entries), and the
  // entry of every compiled output the diff writes.
  std::vector<std::string> changed;
  changed.reserve(diff.writes.size());
  for (const FileWrite& write : diff.writes) {
    changed.push_back(write.path);
  }
  FileReader overlay = OverlayReader(diff);
  std::set<std::string> entries;
  for (const std::string& entry : deps_->EntriesAffectedBy(changed)) {
    entries.insert(entry);
  }
  std::map<std::string, std::string> output_entry;  // X.json -> X.cconf.
  for (const FileWrite& write : diff.writes) {
    if (write.path.ends_with(".cconf") && write.content.has_value()) {
      entries.insert(write.path);
    }
    if (!write.content.has_value()) {
      // An entry deleted by this diff no longer needs to compile.
      entries.erase(write.path);
    }
    if (write.path.ends_with(".json")) {
      std::string entry =
          write.path.substr(0, write.path.size() - 5) + ".cconf";
      if (overlay(entry).ok()) {
        output_entry[write.path] = entry;  // Checked below, so compiled.
        entries.insert(entry);
      }
    }
  }

  ConfigCompiler compiler = Compiler(overlay);
  report.passed = true;
  std::map<std::string, CompileOutput> outputs;
  for (const std::string& entry : entries) {
    auto output = compiler.Compile(entry);
    if (output.ok()) {
      report.compiled_entries.push_back(entry);
      outputs.emplace(entry, std::move(*output));
    } else {
      report.passed = false;
      report.failures.push_back(entry + ": " + output.status().ToString());
    }
  }

  // A compiled output lands only as its entry produces it (paper §3.1: a
  // config and its generated JSON land together). Every write to X.json
  // next to an X.cconf must equal what X.cconf compiles to, and deleting
  // X.json is a failure while X.cconf still produces it.
  for (const FileWrite& write : diff.writes) {
    auto entry = output_entry.find(write.path);
    auto output = entry != output_entry.end() ? outputs.find(entry->second)
                                              : outputs.end();
    if (output == outputs.end()) {
      continue;  // Not a compiled output, or its entry failed to compile.
    }
    std::optional<std::string> produced;
    for (const CompiledConfig& config : output->second.configs) {
      if (config.path == write.path) {
        produced = config.content.DumpPretty();
      }
    }
    if (write.content != produced) {
      report.passed = false;
      report.failures.push_back(
          write.path + ": " +
          (write.content.has_value()
               ? "does not match what " + entry->second + " compiles to"
               : "deleted while " + entry->second + " still compiles to it"));
    }
  }

  // Raw-config validation for every written path (compiled outputs included
  // — a malformed generated JSON would indicate a compiler bug).
  for (const FileWrite& write : diff.writes) {
    if (!write.content.has_value()) {
      continue;
    }
    Status status = ValidateRawConfig(write.path, *write.content, overlay);
    if (!status.ok()) {
      report.passed = false;
      report.failures.push_back(write.path + ": " + status.ToString());
    }
  }

  // Static analysis over everything the diff touches, then over the reverse
  // dependency closure — untouched entries the change can still break.
  // Error-severity findings block the diff just like a failing compile;
  // warnings are advisory.
  report.lint_findings = RunLint(diff);

  // Semantic diff: classify every impacted symbol (head tree vs overlay)
  // and attach the classification to the landing. The differ's gating
  // findings (G007, G008, G010) ride the same lint stream and can block.
  std::set<std::string> closure = PrunedClosure(diff, &report);
  const Repository* repo = repo_;
  FileReader head_reader = [repo](const std::string& path) {
    return repo->ReadFile(path);
  };
  SemanticDiffer differ(head_reader, overlay, *store_);
  SemanticDiffReport semdiff = differ.Classify(
      changed, std::vector<std::string>(closure.begin(), closure.end()));
  report.semantic_impacts = semdiff.impacts;
  report.provably_noop = semdiff.provably_noop;
  report.lint_findings.insert(report.lint_findings.end(),
                              semdiff.findings.begin(),
                              semdiff.findings.end());

  if (report.provably_noop) {
    // Certified no-op (comment/reformat-only, every other write
    // byte-identical, invariant specs included): no value the reverse
    // closure or an invariant reads moved, so neither is re-checked.
    CLOG(Info) << "Sandcastle: diff is provably no-op; skipping reverse-"
               << "closure re-analysis of " << closure.size()
               << " dependent(s) and invariant re-verification";
  } else {
    ReanalyzeClosure(diff, closure, &report);

    // Cross-config invariants over the blast radius.
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
  }

  if (report.lint_errors() > 0) {
    report.passed = false;
  }
  return report;
}

std::map<std::string, std::optional<std::set<std::string>>> DiffChangedSymbols(
    const Repository& repo, const ProposedDiff& diff, AnalysisStore& store) {
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
    changed[path] = ChangedSymbols(*store.Surface(path, *head),
                                   *store.Surface(path, *write.content));
  }
  return changed;
}

std::map<std::string, std::optional<std::set<std::string>>> DiffChangedSymbols(
    const Repository& repo, const ProposedDiff& diff) {
  AnalysisStore store;
  return DiffChangedSymbols(repo, diff, store);
}

std::set<std::string> Sandcastle::PrunedClosure(const ProposedDiff& diff,
                                                CiReport* report) {
  // The file-level reverse closure, then the symbol-pruned one. The
  // difference is the pruning win: dependents whose slice proves the edit
  // can't reach them.
  auto changed_symbols = DiffChangedSymbols(*repo_, diff, *store_);
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
                                  CiReport* report) {
  ReanalyzeClosure(diff, PrunedClosure(diff, report), report);
}

void Sandcastle::ReanalyzeClosure(const ProposedDiff& diff,
                                  const std::set<std::string>& closure,
                                  CiReport* report) {
  std::set<std::string> touched;
  for (const FileWrite& write : diff.writes) {
    touched.insert(write.path);
  }

  FileReader overlay = OverlayReader(diff);
  ConfigLint linter(overlay, *store_);

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
    std::shared_ptr<const AbsintResult> result =
        store_->Absint(overlay, path, *content);
    report->lint_findings.insert(report->lint_findings.end(),
                                 result->diagnostics.begin(),
                                 result->diagnostics.end());
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
    if (analyzed >= kMaxClosure) {
      report->closure_truncated = true;
      CLOG(Warning) << "Sandcastle: reverse-closure re-analysis truncated at "
                    << kMaxClosure << " of " << closure.size()
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
    std::shared_ptr<const AbsintResult> result =
        store_->Absint(overlay, entry, *content);
    report->lint_findings.insert(report->lint_findings.end(),
                                 result->diagnostics.begin(),
                                 result->diagnostics.end());
  }
}

void Sandcastle::RunInvariants(const ProposedDiff& diff,
                               const std::set<std::string>& scope,
                               CiReport* report) {
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
  std::shared_ptr<const InvariantRegistry> registry = store_->Registry(
      overlay, std::vector<std::string>(spec_files.begin(), spec_files.end()));
  InvariantChecker checker(overlay, *store_);
  InvariantReport result = checker.Check(*registry, scope);
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

std::vector<LintDiagnostic> Sandcastle::RunLint(const ProposedDiff& diff) {
  // Imports resolve through the overlay: a finding (or its absence) reflects
  // the tree as it would look with the diff applied.
  ConfigLint linter(OverlayReader(diff), *store_);
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
