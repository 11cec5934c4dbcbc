// Semantic config diffing (see docs/ANALYSIS.md): classify every commit's
// per-symbol impact *without evaluating it concretely*. The differ abstractly
// interprets the old and the new version of the commit's closure (touched
// files plus the dependent entries Sandcastle would re-analyze) and labels
// each top-level symbol, entry export, and Gatekeeper project:
//
//   no-op        — provably the same runtime value (unchanged fingerprint
//                  and dependencies, or byte-equal *precise* abstract
//                  renders). This is a soundness-critical certificate: the
//                  differential battery in tests/semdiff_differential_test.cc
//                  asserts no-op symbols never change concretely.
//   value-delta  — same shape, different (or no longer provably identical)
//                  value; carries the abstract old -> new renders, including
//                  integer bounds.
//   control-shift— the *guards* changed: an export now depends on different
//                  guard symbols, or a Gatekeeper project consults different
//                  restraint types / UserContext fields.
//   type-change  — kind set, schema struct tag, or existence changed
//                  (added/removed symbols land here).
//
// Only CSL sources and Gatekeeper projects are classified. A commit that
// changes the bytes of any other file (a raw config, a compiled output, a
// schema, an invariant spec) is never certified no-op.
//
// Classification drives the landing pipeline: provably-no-op commits skip
// reverse-closure re-analysis and invariant re-verification and take the
// fast-path canary, RiskAdvisor weights blast radius by severity, and
// CanaryScope annotates the rollout with the old -> new bounds. The differ
// also reports the gating findings that need the commit's closure (G007,
// G008, G010; see SemanticDiffReport::findings).

#ifndef SRC_ANALYSIS_SEMDIFF_H_
#define SRC_ANALYSIS_SEMDIFF_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/absint.h"
#include "src/analysis/diagnostic.h"
#include "src/analysis/store.h"
#include "src/lang/compiler.h"
#include "src/vcs/diff.h"

namespace configerator {

enum class ImpactKind {
  kNoOp = 0,
  kValueDelta = 1,
  kControlShift = 2,
  kTypeChange = 3,
};

std::string_view ImpactKindName(ImpactKind kind);

// The classification of one symbol (module binding, entry export — symbol is
// then the output path — or Gatekeeper project name).
struct SymbolImpact {
  std::string file;
  std::string symbol;
  ImpactKind kind = ImpactKind::kNoOp;
  std::string old_value;  // Abstract render; "" when the symbol was added.
  std::string new_value;  // "" when the symbol was removed.
  std::string detail;     // One-line reason for the classification.
  std::vector<int> lines;  // Changed source lines attributed to this symbol.

  // Risk ordering: no-op 0, value-delta 1, control-shift 2, type-change 3.
  int severity() const { return static_cast<int>(kind); }
  std::string Describe() const;
};

struct SemanticDiffReport {
  // Sorted by (file, symbol). Covers every export of every analyzed entry,
  // every symbol of every touched CSL file, and every impacted symbol of
  // dependents — so an untouched dependent whose guard flipped shows up.
  std::vector<SymbolImpact> impacts;
  // Gating findings over the new side's closure (the analyzed files plus
  // every CSL file their new versions read): G007 symbol added but read
  // nowhere (only when sound), G008 newly-unreachable branch, G010 shadowed
  // import. Canonically sorted.
  std::vector<LintDiagnostic> findings;
  // False when some version failed to parse, an import was dynamic, a
  // slice was unsound, or a file of the new closure was unreadable: no-op
  // certificates are then withheld.
  bool sound = true;
  // Every impact is a provable no-op and no other write changed a byte
  // (comment/reformat-only commits): safe to skip reverse-closure
  // re-analysis and invariants and to fast-path the canary.
  bool provably_noop = false;

  size_t CountKind(ImpactKind kind) const;
  const SymbolImpact* Find(const std::string& file,
                           const std::string& symbol) const;
  std::string Summary() const;
};

// Attributes the changed lines of a diff to the symbols whose definition
// ranges they fall in: added lines against the new surface, deleted lines
// against the old. Lines hitting no definition range are dropped (imports,
// exports, comments between definitions).
std::map<std::string, std::vector<int>> AttributeDiffLines(
    const ModuleSymbolSurface& old_surface,
    const ModuleSymbolSurface& new_surface, const LineDiff& diff);

class SemanticDiffer {
 public:
  // `old_reader` resolves the pre-commit tree (repo head), `new_reader` the
  // post-commit tree (Sandcastle's overlay). Both sides are analyzed
  // through an analysis store (src/analysis/store.h) the differ owns, so a
  // version the two sides or two Classify calls share is analyzed once.
  SemanticDiffer(FileReader old_reader, FileReader new_reader);
  // Analyzes through `store` instead, which must outlive the differ.
  SemanticDiffer(FileReader old_reader, FileReader new_reader,
                 AnalysisStore& store);

  // Classifies the commit that turned `old_reader`'s tree into
  // `new_reader`'s. `touched_paths` are the files the commit writes/deletes;
  // `dependent_entries` the untouched entries whose closure can reach a
  // touched file (Sandcastle's symbol-pruned reverse closure).
  SemanticDiffReport Classify(const std::vector<std::string>& touched_paths,
                              const std::vector<std::string>& dependent_entries);

 private:
  FileReader old_reader_;
  FileReader new_reader_;
  std::unique_ptr<AnalysisStore> owned_store_;  // Null when given one.
  AnalysisStore* store_;
};

}  // namespace configerator

#endif  // SRC_ANALYSIS_SEMDIFF_H_
