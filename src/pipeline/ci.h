// Sandcastle (paper §3.3): automated continuous-integration tests that run
// in a sandbox against the proposed config change before it can land. Here
// the sandbox is an overlay of the diff on top of the repository head: every
// entry config affected by the change is recompiled (schema checks and
// validators run as part of compilation), ConfigLint statically analyses
// every touched source and Gatekeeper spec, and the results are posted to
// the review. Error-severity lint findings fail the report (and therefore
// block landing); warnings ride along as advisory review comments.

#ifndef SRC_PIPELINE_CI_H_
#define SRC_PIPELINE_CI_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <memory>

#include "src/analysis/absint.h"
#include "src/analysis/invariant.h"
#include "src/analysis/lint.h"
#include "src/analysis/semdiff.h"
#include "src/analysis/store.h"
#include "src/lang/compiler.h"
#include "src/pipeline/dependency.h"
#include "src/pipeline/landing_strip.h"
#include "src/vcs/repository.h"

namespace configerator {

struct CiReport {
  bool passed = false;
  std::vector<std::string> compiled_entries;
  std::vector<std::string> failures;  // One message per failing entry.
  // ConfigLint + abstract-interpretation findings over every file the diff
  // touches AND every entry in its (symbol-pruned) reverse dependency
  // closure. Error severity implies !passed; warnings never flip `passed`
  // on their own.
  std::vector<LintDiagnostic> lint_findings;
  // Untouched entries re-analyzed because the diff can reach them.
  std::vector<std::string> reanalyzed_entries;
  // File-level dependents skipped because their symbol slice proves the
  // changed symbols never flow into them.
  size_t pruned_dependents = 0;
  // True when the reverse closure was larger than the Sandcastle cap and
  // got truncated (a notice is logged; the skipped tail is not analyzed).
  bool closure_truncated = false;
  // Semantic diff of the landing: per-symbol classification (no-op /
  // value-delta / control-shift / type-change) over the touched files and
  // the symbol-pruned closure, attached to the review.
  std::vector<SymbolImpact> semantic_impacts;
  // Every impacted symbol is a provable no-op and every other write is
  // byte-identical (SemanticDiffReport::provably_noop): Sandcastle then
  // skips the reverse-closure re-analysis and the invariant stage, and the
  // landing takes the fast-path canary.
  bool provably_noop = false;
  // Cross-config invariants activated by the diff's blast radius (touched
  // paths + recompiled/reanalyzed outputs), evaluated over the overlay.
  // Violations inject I-series diagnostics into lint_findings (errors block
  // landing); in-jeopardy outcomes feed RiskAdvisor and CanaryScope.
  std::vector<InvariantOutcome> invariant_outcomes;
  size_t invariants_proven = 0;
  size_t invariants_in_jeopardy = 0;

  size_t lint_errors() const { return CountLintErrors(lint_findings); }
  size_t lint_warnings() const {
    return lint_findings.size() - CountLintErrors(lint_findings);
  }

  std::string Summary() const;
};

// Per changed path, which top-level symbols the diff modifies — computed by
// diffing the symbol surface of the head content against the diff's.
// nullopt = not statically comparable (parse failure, side-effecting
// statements changed); consumers then fall back to file-level edges.
// `store` serves the surfaces.
std::map<std::string, std::optional<std::set<std::string>>> DiffChangedSymbols(
    const Repository& repo, const ProposedDiff& diff, AnalysisStore& store);
// The same through a store of its own.
std::map<std::string, std::optional<std::set<std::string>>> DiffChangedSymbols(
    const Repository& repo, const ProposedDiff& diff);

class Sandcastle {
 public:
  // Upper bound on how many untouched dependent entries one diff may pull
  // into re-analysis; beyond it the closure is truncated with a logged
  // notice (report.closure_truncated).
  static constexpr size_t kMaxClosure = 64;

  // `metrics` (optional, must outlive Sandcastle) receives the CSL engine's
  // unit-cache hit/miss counters and compile/execute histograms.
  Sandcastle(const Repository* repo, const DependencyService* deps,
             MetricsRegistry* metrics = nullptr);
  ~Sandcastle();

  // Recompiles every entry config affected by `diff` in a sandbox overlay,
  // fails every write to (or deletion of) X.json that differs from what an
  // X.cconf in the overlay compiles to, runs the raw-config validator over
  // every written path (Gatekeeper project JSON must compile into a
  // project; canary and invariant specs must parse; any "*.json" must at
  // least be valid JSON), and lints every touched file with ConfigLint (imports resolved
  // through the overlay, so cross-module findings see the diff's state of
  // the tree). Every stage reads and fills the long-lived caches below, so
  // none of them is const.
  CiReport RunTests(const ProposedDiff& diff);

  // The ConfigLint stage alone: diagnostics for every file `diff` touches.
  std::vector<LintDiagnostic> RunLint(const ProposedDiff& diff);

  // The cross-config invariant stage alone: loads every "invariants/" spec
  // through the overlay, activates those whose referenced configs intersect
  // `scope` (empty = audit everything), and records outcomes + diagnostics
  // in `report`. RunTests calls this with the semdiff-pruned blast radius
  // unless the diff is provably no-op (an edit to a spec never is).
  void RunInvariants(const ProposedDiff& diff,
                     const std::set<std::string>& scope, CiReport* report);

  // A FileReader that resolves through `diff` first, then the repo head.
  FileReader OverlayReader(const ProposedDiff& diff) const;

  // A compiler over `reader` that compiles through Sandcastle's unit cache
  // (and metrics sink), so a proposal's, its CI's and its landing's
  // compiles of one entry version evaluate it once.
  ConfigCompiler Compiler(FileReader reader);

  // The analysis store every stage reads (see src/analysis/store.h); its
  // unit cache is the one Compiler() compiles through.
  AnalysisStore& analysis_store() { return *store_; }

  // The reverse-closure stage alone: re-lints and abstractly re-interprets
  // every entry the diff can reach through the dependency graph — not just
  // the files it touches — so a dependent that the diff silently breaks
  // (e.g. its schema shape becomes invalid under the new constants) blocks
  // landing even though no touched file mentions it. Symbol slices prune
  // dependents the changed symbols provably never reach. Results land in
  // `report` (findings, reanalyzed_entries, pruned_dependents,
  // closure_truncated).
  void ReanalyzeClosure(const ProposedDiff& diff, CiReport* report);

 private:
  // Computes the symbol-pruned reverse closure of `diff` and records the
  // pruning statistics in `report` (pruned_dependents).
  std::set<std::string> PrunedClosure(const ProposedDiff& diff,
                                      CiReport* report);
  // The analysis half of ReanalyzeClosure, over a precomputed closure.
  void ReanalyzeClosure(const ProposedDiff& diff,
                        const std::set<std::string>& closure,
                        CiReport* report);

  const Repository* repo_;
  const DependencyService* deps_;
  MetricsRegistry* metrics_;
  // Live as long as Sandcastle, shared by every stage and, through its unit
  // cache, by the stack's proposal and landing compiles: unchanged files
  // byte-compare equal and skip parsing, an entry whose every read returns
  // what its last compile read replays its memoized output without
  // evaluating, and each entry version is abstractly interpreted once.
  // Hermeticity is unaffected — every stage still re-reads sources through
  // its reader and compares them against what was kept. It keeps at most
  // two versions per path.
  std::unique_ptr<AnalysisStore> store_;
};

}  // namespace configerator

#endif  // SRC_PIPELINE_CI_H_
