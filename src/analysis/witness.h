// Counterexample witnesses for cross-config invariants: the concrete side of
// the checker. Where invariant.cc reasons over abstract intervals, this
// module compiles the involved entries for real, evaluates the predicate on
// concrete values, shrinks the result with ddmin (src/util/ddmin.h), and
// re-validates the shrunk witness — the zero-spurious-report guarantee lives
// here. Tortoise (PAPERS.md) argues configuration errors should be reported
// with concrete counterexamples the user can act on; a Witness is exactly
// that: the minimal symbol valuation (and, for gatekeeper predicates, the
// minimal concrete UserContext) that demonstrably falsifies the invariant.

#ifndef SRC_ANALYSIS_WITNESS_H_
#define SRC_ANALYSIS_WITNESS_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/json/json.h"
#include "src/lang/compiler.h"

namespace configerator {

struct Witness {
  // True only after the final shrunk witness re-evaluated concretely as a
  // violation. The checker never reports a witness with validated == false.
  bool validated = false;
  // Minimal symbol valuation: ("config:field", rendered concrete value).
  // For sum invariants that *exceed* their budget this is the ddmin-minimal
  // subset of terms that already exceeds it alone; for equality/deficit
  // violations every term is listed (dropping terms changes the sum).
  std::vector<std::pair<std::string, std::string>> valuation;
  // Concrete context for gatekeeper invariants: only the fields that matter
  // (ddmin-shrunk against default values), as (field, rendered value).
  std::vector<std::pair<std::string, std::string>> context;
  // The instantiated predicate, e.g. "95 <= 90 is false".
  std::string predicate;
  int shrink_probes = 0;  // Concrete evaluations spent shrinking.

  // One-line rendering for diagnostics, canary scopes, and logs.
  std::string Describe() const;
};

// Resolves config references to concrete JSON values, caching per path. A
// config path resolves to (in order): the output of compiling its entry
// source ("x.json" -> compile "x.cconf"), or the file's own content parsed
// as JSON. Compilation failures and unreadable paths resolve to nullopt.
class ConcreteEvaluator {
 public:
  // `units` is the compile cache: an entry whose closure it already
  // compiled replays without evaluating. It must outlive the evaluator.
  ConcreteEvaluator(FileReader reader, CompiledUnitCache& units);

  // The whole config value, or nullopt when unresolvable.
  const std::optional<Json>& ResolveConfig(const std::string& config);

  // The value at `dot_path` inside the config ("" = the root). nullopt when
  // the config is unresolvable or the path is absent.
  std::optional<Json> Field(const std::string& config,
                            const std::string& dot_path);

  // Whether `config` resolves at all (reference-kind invariants).
  bool ConfigExists(const std::string& config);

  size_t evaluations() const { return evaluations_; }

 private:
  FileReader reader_;
  CompiledUnitCache& units_;
  std::map<std::string, std::optional<Json>> cache_;
  size_t evaluations_ = 0;
};

// Renders a concrete Json scalar for witness valuations ("95", "\"hot\"").
std::string RenderWitnessValue(const Json& value);

// Shrinks a sum-exceeds witness: the minimal subset of `values` (indices
// into it) whose sum alone still violates `sum > budget` (relation kLe) or
// `sum >= budget` (relation kLt). Probes are pure arithmetic; `probes` gets
// the ddmin probe count. Returns kept indices, ascending.
std::vector<size_t> ShrinkSumWitness(const std::vector<double>& values,
                                     double budget, bool strict_exceeds,
                                     int* probes);

}  // namespace configerator

#endif  // SRC_ANALYSIS_WITNESS_H_
