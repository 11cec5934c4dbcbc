// Cross-config invariants (ROADMAP items 4-5; Tortoise/muPuppet in
// PAPERS.md): declarative predicates relating exported symbols *across*
// entries and files — the joint-consistency properties per-file validators
// cannot see (a shed threshold above its kill threshold, shard weights that
// no longer sum to 100, a fallback path naming a config that was deleted, a
// gatekeeper project consulting a context field it must not).
//
// Invariants are themselves configs: JSON files under "invariants/" in the
// repository, loaded into an InvariantRegistry. The InvariantChecker
// evaluates each one symbolically over the abstract interpreter's
// interval/constant lattice, case-splitting on branch decisions (one
// ExportSlice per `export` call site) and — for gatekeeper predicates — on
// the context values each compiled restraint reports as its boundary probes.
// The outcome per invariant is one of:
//
//   kProven     every case satisfies the predicate on abstract facts alone:
//               no context, no branch arm, no schema-valid value can break it.
//   kViolated   some concrete evaluation (compiled entries / parsed configs /
//               a concrete UserContext) falsifies the predicate. Violations
//               always carry a counterexample Witness that was re-validated
//               concretely and ddmin-shrunk — a diagnostic is never emitted
//               from abstract reasoning alone, so every report is real.
//   kInJeopardy the abstract proof failed but no concrete violation exists at
//               head: the invariant holds today by accident, not by
//               construction. No diagnostic — but RiskAdvisor weights it and
//               CanaryScope carries it as rollout context.
//   kUnresolved an activated invariant references a config that resolves to
//               neither an entry's output nor a raw JSON file (I004, error).
//
// Spec file shape:
//   {"invariants": [
//     {"name": "shed-below-kill", "kind": "ordering", "severity": "error",
//      "lhs": {"config": "feed/shed.json", "field": "threshold"},
//      "relation": "<=",
//      "rhs": {"config": "feed/kill.json", "field": "threshold"}},
//     {"name": "shard-weights", "kind": "sum", "relation": "==",
//      "terms": [{"config": "a.json", "field": "weight"}, ...],
//      "budget": 100},
//     {"name": "tier-valid", "kind": "membership",
//      "subject": {"config": "a.json", "field": "tier"},
//      "allowed": ["hot", "warm", "cold"]},
//     {"name": "fallback-exists", "kind": "reference",
//      "subject": {"config": "a.json", "field": "fallback"}},
//     {"name": "rollout-inside-eligibility", "kind": "gate_implies",
//      "if_project": "gatekeeper/rollout.json",
//      "then_project": "gatekeeper/eligible.json"},
//     {"name": "rollout-fields", "kind": "gate_context",
//      "project": "gatekeeper/rollout.json",
//      "allowed_fields": ["country", "user_id"]}
//   ]}

#ifndef SRC_ANALYSIS_INVARIANT_H_
#define SRC_ANALYSIS_INVARIANT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/analysis/store.h"
#include "src/analysis/witness.h"
#include "src/json/json.h"
#include "src/lang/compiler.h"

namespace configerator {

enum class InvariantKind {
  kOrdering,    // lhs <relation> rhs over two numeric fields.
  kSum,         // sum(terms) <relation> budget.
  kMembership,  // subject's value in an allowed set.
  kReference,   // subject's string value names an existing config.
  kGateImplies,  // every context eligible under if_project is under then_project.
  kGateContext,  // project consults only allowed_fields of the UserContext.
};

std::string_view InvariantKindName(InvariantKind kind);

enum class InvariantRelation { kLt, kLe, kEq, kNe, kGe, kGt };

std::string_view InvariantRelationName(InvariantRelation relation);

// A reference to one exported value: the *output* path of a config (what an
// entry exports, or a raw JSON file's own path) plus a dot path into it
// ("" = the whole value, "thresholds.shed" = nested field).
struct SymbolRef {
  std::string config;
  std::string field;

  std::string Describe() const;  // "feed/shed.json:thresholds.shed".
};

struct InvariantSpec {
  std::string name;
  InvariantKind kind = InvariantKind::kOrdering;
  LintSeverity severity = LintSeverity::kError;
  std::string file;  // Spec file this invariant was declared in.
  int index = 0;     // 0-based position within the file's "invariants" array.

  SymbolRef lhs, rhs;                // kOrdering.
  std::vector<SymbolRef> terms;      // kSum.
  InvariantRelation relation = InvariantRelation::kLe;  // kOrdering + kSum.
  double budget = 0;                 // kSum.
  SymbolRef subject;                 // kMembership + kReference.
  std::vector<Json> allowed;         // kMembership.
  std::string if_project, then_project;      // kGateImplies.
  std::string project;                       // kGateContext.
  std::vector<std::string> allowed_fields;   // kGateContext.

  // Human-readable predicate, e.g.
  // "ordering: feed/shed.json:threshold <= feed/kill.json:threshold".
  std::string Describe() const;

  // Every config/project path the invariant mentions (activation set).
  std::set<std::string> ReferencedConfigs() const;
};

// A parsed collection of invariant spec files. Malformed files or entries
// produce I000 error diagnostics (and the malformed entry is dropped) — a
// registry that fails to parse must block the diff that introduced it.
struct InvariantRegistry {
  std::vector<InvariantSpec> invariants;
  std::vector<LintDiagnostic> diagnostics;  // I000, sorted canonically.
  // Activation index: each referenced config and each spec file -> the
  // positions in `invariants` it activates, ascending.
  std::map<std::string, std::vector<size_t>> activated_by;

  // Parses one spec file's content and appends its invariants/diagnostics.
  void AddSpecFile(const std::string& file, const std::string& content);

  // Reads every file in `spec_files` through `reader` (unreadable files are
  // skipped: a deleted spec file simply removes its invariants).
  static InvariantRegistry Load(const FileReader& reader,
                                const std::vector<std::string>& spec_files);
};

enum class InvariantStatus { kProven, kViolated, kInJeopardy, kUnresolved };

std::string_view InvariantStatusName(InvariantStatus status);

struct InvariantOutcome {
  std::string name;
  InvariantKind kind = InvariantKind::kOrdering;
  LintSeverity severity = LintSeverity::kError;
  InvariantStatus status = InvariantStatus::kProven;
  std::string predicate;  // InvariantSpec::Describe() of the invariant.
  std::string detail;     // Why: the undecided case, the missing ref, ...
  size_t cases_checked = 0;  // Abstract case combinations evaluated.
  // Populated (and always concretely validated) when status == kViolated.
  Witness witness;
};

struct InvariantReport {
  std::vector<InvariantOutcome> outcomes;  // Activated invariants only.
  // I000 registry errors, I001-I006 violations, I004 dangling references.
  // Violation diagnostics carry the invariant's declared severity; errors
  // block landing through Sandcastle like any other lint error.
  std::vector<LintDiagnostic> diagnostics;
  size_t proven = 0;
  size_t violated = 0;
  size_t in_jeopardy = 0;
  size_t unresolved = 0;
  size_t skipped = 0;  // Out of scope, not evaluated.

  std::string Summary() const;
};

class InvariantChecker {
 public:
  // `reader` resolves both entry sources and raw JSON configs (in the
  // pipeline it is Sandcastle's overlay reader, so the checker sees the tree
  // as it would look with the diff applied). The entries' abstract
  // interpretations and compiles go through an analysis store (see
  // src/analysis/store.h) the checker owns.
  explicit InvariantChecker(FileReader reader);
  // Goes through `store` instead, which must outlive the checker.
  InvariantChecker(FileReader reader, AnalysisStore& store);

  // Checks every invariant in `registry` whose referenced configs (or
  // declaring spec file) intersect `scope` — the semdiff-pruned blast
  // radius: output paths of recompiled + reanalyzed entries plus every
  // touched path. An empty scope checks everything (full-repo audit mode).
  //
  // An activated invariant pulls *all* of its referenced configs into
  // analysis, including ones outside the scope: joint consistency is a
  // property of the whole relation, not of the touched side alone.
  InvariantReport Check(const InvariantRegistry& registry,
                        const std::set<std::string>& scope = {});

 private:
  FileReader reader_;
  std::unique_ptr<AnalysisStore> owned_store_;  // Null when given one.
  AnalysisStore* store_;
};

}  // namespace configerator

#endif  // SRC_ANALYSIS_INVARIANT_H_
