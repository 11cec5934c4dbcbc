#include "src/pipeline/risk.h"

#include <algorithm>

#include "src/util/strings.h"
#include "src/vcs/diff.h"

namespace configerator {

namespace {

// A file's text on one side of a delta; the side it is absent from reads as
// empty, so an added or deleted file diffs against nothing.
Result<std::string> ReadSide(const Repository& repo,
                             const std::optional<ObjectId>& blob) {
  if (!blob.has_value()) {
    return std::string();
  }
  return repo.store().GetBlob(*blob);
}

}  // namespace

Status RiskAdvisor::IndexHistory(const Repository& repo) {
  // First parents from head back to the last indexed commit, at most
  // max_history_commits of them.
  std::vector<std::pair<ObjectId, CommitObject>> fresh;
  std::optional<ObjectId> id = repo.head();
  while (id.has_value() && id != last_indexed_ &&
         fresh.size() < options_.max_history_commits) {
    ASSIGN_OR_RETURN(CommitObject commit, repo.GetCommit(*id));
    std::optional<ObjectId> parent;
    if (!commit.parents.empty()) {
      parent = commit.parents.front();
    }
    fresh.emplace_back(*id, std::move(commit));
    id = parent;
  }
  // Oldest first. Each commit's blobs are all read before the index changes,
  // so a failed read leaves it complete up to the previous commit.
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    const auto& [commit_id, commit] = *it;
    ASSIGN_OR_RETURN(std::vector<FileDelta> deltas,
                     repo.DiffCommits(last_indexed_, commit_id));
    std::vector<size_t> changed_lines;
    changed_lines.reserve(deltas.size());
    for (const FileDelta& delta : deltas) {
      ASSIGN_OR_RETURN(std::string old_text, ReadSide(repo, delta.old_blob));
      ASSIGN_OR_RETURN(std::string new_text, ReadSide(repo, delta.new_blob));
      changed_lines.push_back(DiffLines(old_text, new_text).changed_lines());
    }
    for (size_t i = 0; i < deltas.size(); ++i) {
      PathHistory& entry = history_[deltas[i].path];
      entry.update_times_ms.push_back(commit.timestamp_ms);
      entry.authors.insert(commit.author);
      entry.mean_change_lines =
          (entry.mean_change_lines * static_cast<double>(entry.change_count) +
           static_cast<double>(changed_lines[i])) /
          static_cast<double>(entry.change_count + 1);
      ++entry.change_count;
    }
    last_indexed_ = commit_id;
  }
  return OkStatus();
}

const RiskAdvisor::PathHistory* RiskAdvisor::HistoryFor(
    const std::string& path) const {
  auto it = history_.find(path);
  return it == history_.end() ? nullptr : &it->second;
}

RiskAssessment RiskAdvisor::Assess(
    const ProposedDiff& diff, const DependencyService* deps,
    const std::map<std::string, std::optional<std::set<std::string>>>*
        changed_symbols,
    const std::vector<SymbolImpact>* impacts,
    const std::vector<InvariantOutcome>* invariants) const {
  RiskAssessment assessment;

  // Invariants newly in jeopardy: the diff did not break them, but it
  // removed the abstract proof that they *cannot* break — the joint
  // consistency now rests on the specific values at head. Violated outcomes
  // block at Sandcastle and are not double-counted here.
  if (invariants != nullptr) {
    for (const InvariantOutcome& outcome : *invariants) {
      if (outcome.status == InvariantStatus::kInJeopardy) {
        assessment.score += 0.75;
        assessment.reasons.push_back(
            "invariant '" + outcome.name +
            "' is in jeopardy: it holds concretely but is no longer "
            "abstractly provable (" + outcome.detail + ")");
      }
    }
  }

  for (const FileWrite& write : diff.writes) {
    const PathHistory* history = HistoryFor(write.path);
    if (history == nullptr) {
      continue;  // New path: no history-based signal.
    }

    // Dormant config suddenly changed.
    if (!history->update_times_ms.empty() && diff.timestamp_ms > 0) {
      int64_t idle = diff.timestamp_ms - history->update_times_ms.back();
      if (idle >= kDormantMs) {
        assessment.score += 1.0;
        assessment.reasons.push_back(StrFormat(
            "%s has been dormant for %lld days", write.path.c_str(),
            static_cast<long long>(idle / (24LL * 3600 * 1000))));
      }
    }

    // Highly-shared config.
    if (history->authors.size() >= kSharedAuthorThreshold) {
      assessment.score += 1.0;
      assessment.reasons.push_back(StrFormat(
          "%s is highly shared (%zu distinct authors)", write.path.c_str(),
          history->authors.size()));
    }

    // First-time author on a config others own.
    if (!history->authors.empty() && history->authors.count(diff.author) == 0) {
      assessment.score += 0.5;
      assessment.reasons.push_back(StrFormat(
          "%s has never been updated by %s before", write.path.c_str(),
          diff.author.c_str()));
    }

    // Unusually large change vs this config's own history.
    if (write.content.has_value() && history->change_count >= 3 &&
        history->mean_change_lines > 0) {
      // The proposed change size is unknown without the base content; use
      // the new content's line count as an upper bound when the file is
      // being replaced wholesale, which is the risky case.
      double new_lines = static_cast<double>(SplitLines(*write.content).size());
      if (new_lines >
          history->mean_change_lines * kUnusualSizeMultiplier &&
          new_lines > 20) {
        assessment.score += 1.0;
        assessment.reasons.push_back(StrFormat(
            "%s: change touches ~%.0f lines vs a historical mean of %.1f",
            write.path.c_str(), new_lines, history->mean_change_lines));
      }
    }

    // Deleting a config many entries depend on.
    if (!write.content.has_value()) {
      assessment.score += 0.5;
      assessment.reasons.push_back(write.path + " is being deleted");
    }

    // High fan-in source file. With a symbol-level view of the edit, count
    // only entries that consume a changed symbol — the true blast radius —
    // instead of every file-level dependent. With a semantic classification
    // of the edit, weight by the worst impact on this path: blast radius is
    // fan-in times severity, not fan-in alone.
    if (deps != nullptr) {
      size_t fan_in = deps->EntriesAffectedBy({write.path}).size();
      bool symbol_refined = false;
      if (changed_symbols != nullptr) {
        auto it = changed_symbols->find(write.path);
        if (it != changed_symbols->end() && it->second.has_value()) {
          fan_in = deps->EntriesAffectedBySymbols(write.path, *it->second).size();
          symbol_refined = true;
        }
      }
      int max_severity = -1;  // -1 = no semantic view of this path.
      if (impacts != nullptr) {
        for (const SymbolImpact& impact : *impacts) {
          if (impact.file == write.path) {
            max_severity = std::max(max_severity, impact.severity());
          }
        }
      }
      if (fan_in >= options_.fan_in_threshold) {
        if (max_severity == 0) {
          assessment.reasons.push_back(StrFormat(
              "%s has %zu dependents but the edit is provably no-op; "
              "fan-in signal skipped",
              write.path.c_str(), fan_in));
        } else {
          static constexpr double kSeverityWeight[4] = {0.0, 0.5, 1.0, 1.5};
          double weight =
              max_severity < 0 ? 1.0 : kSeverityWeight[max_severity];
          assessment.score += weight;
          std::string reason = StrFormat(
              "%zu entry configs %s %s", fan_in,
              symbol_refined ? "consume symbols changed in" : "depend on",
              write.path.c_str());
          if (max_severity > 0) {
            reason += StrFormat(
                " (worst semantic impact: %s, weight %.1f)",
                std::string(ImpactKindName(
                                static_cast<ImpactKind>(max_severity)))
                    .c_str(),
                weight);
          }
          assessment.reasons.push_back(std::move(reason));
        }
      }
    }
  }

  assessment.high_risk = assessment.score >= kHighRiskScore;
  return assessment;
}

}  // namespace configerator
