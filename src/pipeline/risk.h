// Risk advisor — the paper's proposed future work, §6.2/§8: "it would be
// helpful to automatically flag high-risk updates on these highly-shared
// configs" and "a dormant config is suddenly changed in an unusual way".
//
// The advisor indexes the repository history once (per-path update times,
// author sets, and change sizes) and scores a proposed diff against it:
//   * dormant-config edits (untouched for months, now changing),
//   * edits to highly-shared configs (many distinct co-authors),
//   * changes much larger than the config's historical edits,
//   * first-time authors on a config others own,
//   * edits to high-fan-in sources (many entries depend on them).
// Scores are advisory: they annotate the review, they do not block.

#ifndef SRC_PIPELINE_RISK_H_
#define SRC_PIPELINE_RISK_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/invariant.h"
#include "src/analysis/semdiff.h"
#include "src/pipeline/dependency.h"
#include "src/pipeline/landing_strip.h"
#include "src/util/status.h"
#include "src/vcs/repository.h"

namespace configerator {

struct RiskAssessment {
  double score = 0;  // >= threshold -> high risk.
  std::vector<std::string> reasons;
  bool high_risk = false;
};

class RiskAdvisor {
 public:
  struct Options {
    size_t fan_in_threshold = 10;  // Dependent entries.
    size_t max_history_commits = 10'000;
  };

  explicit RiskAdvisor(Options options) : options_(options) {}
  RiskAdvisor() : RiskAdvisor(Options{}) {}

  // Builds (or incrementally extends) the history index: follows first
  // parents from head back to the last indexed commit (at most
  // max_history_commits of them) and line-diffs each changed file's blobs,
  // read by id from the deltas. A call costs O(files changed since the last
  // one), not O(history) or O(directory size). A blob that cannot be read
  // fails the call; the index then stays complete up to the commit before.
  Status IndexHistory(const Repository& repo);

  // Scores a proposed diff. `deps` may be null (skips the fan-in signal).
  // `changed_symbols` (per path, as DiffChangedSymbols() produces) refines
  // the fan-in signal to symbol edges: only entries that actually consume a
  // changed symbol count, so editing an unused constant in a popular module
  // no longer reads as high-risk. Paths missing from the map — or mapped to
  // nullopt — fall back to file-level fan-in. `impacts` (the semantic
  // diff's per-symbol classification, as Sandcastle attaches to the
  // landing) weights the fan-in signal by severity: a provably-no-op edit
  // to a popular module contributes nothing, a value-delta half weight, a
  // control-shift full weight, a type-change 1.5x. `invariants` (the
  // outcomes Sandcastle's invariant stage attaches) adds the
  // newly-in-jeopardy signal: an invariant that still holds concretely but
  // lost its abstract proof under this diff is one bad follow-up edit away
  // from an outage, so each in-jeopardy outcome raises the score.
  RiskAssessment Assess(
      const ProposedDiff& diff, const DependencyService* deps = nullptr,
      const std::map<std::string, std::optional<std::set<std::string>>>*
          changed_symbols = nullptr,
      const std::vector<SymbolImpact>* impacts = nullptr,
      const std::vector<InvariantOutcome>* invariants = nullptr) const;

  // Per-path history snapshot (for tests and UIs).
  struct PathHistory {
    std::vector<int64_t> update_times_ms;  // Ascending.
    std::set<std::string> authors;
    double mean_change_lines = 0;
    size_t change_count = 0;
  };
  const PathHistory* HistoryFor(const std::string& path) const;

 private:
  static constexpr int64_t kDormantMs = 180LL * 24 * 3600 * 1000;  // 180 days.
  static constexpr size_t kSharedAuthorThreshold = 10;
  static constexpr double kUnusualSizeMultiplier = 5.0;  // vs mean change.
  static constexpr double kHighRiskScore = 2.0;

  Options options_;
  std::map<std::string, PathHistory> history_;
  std::optional<ObjectId> last_indexed_;
};

}  // namespace configerator

#endif  // SRC_PIPELINE_RISK_H_
