#include "src/pipeline/landing_strip.h"

namespace configerator {

ProposedDiff MakeProposedDiff(const Repository& repo, std::string author,
                              std::string message, std::vector<FileWrite> writes,
                              int64_t timestamp_ms) {
  ProposedDiff diff;
  diff.author = std::move(author);
  diff.message = std::move(message);
  diff.timestamp_ms = timestamp_ms;
  for (const FileWrite& write : writes) {
    diff.base[write.path] = repo.HeadBlobId(write.path);
  }
  diff.writes = std::move(writes);
  return diff;
}

Result<ObjectId> LandingStrip::Land(const ProposedDiff& diff,
                                    const TraceContext& parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  // True-conflict check: every touched path must still be at the diff's base
  // version. Changes to *other* files never force a rebase — that is the
  // whole point of the landing strip.
  for (const auto& [path, base_id] : diff.base) {
    if (repo_->HeadBlobId(path) != base_id) {
      ++conflicts_;
      if (conflicts_counter_ != nullptr) {
        conflicts_counter_->Inc();
      }
      return ConflictError("path '" + path +
                           "' changed since the diff was created; update and "
                           "resolve the conflict");
    }
  }
  // Deleting a path that never existed would fail in Repository::Commit;
  // filter such no-op deletes (can happen when racing diffs both delete).
  std::vector<FileWrite> writes;
  writes.reserve(diff.writes.size());
  for (const FileWrite& write : diff.writes) {
    if (!write.content.has_value() && !repo_->FileExists(write.path)) {
      continue;
    }
    writes.push_back(write);
  }
  auto commit = repo_->Commit(diff.author, diff.message, writes, diff.timestamp_ms);
  if (commit.ok()) {
    ++landed_;
    if (obs_ != nullptr) {
      landed_counter_->Inc();
      SimTime at = diff.timestamp_ms * kSimMillisecond;
      TraceContext land =
          parent.valid()
              ? obs_->tracer.StartSpan(parent, "land", "landing-strip", at)
              : obs_->tracer.StartTrace("land:" + diff.author, "landing-strip",
                                        at);
      obs_->tracer.EndSpan(land, at);
      for (const FileWrite& write : writes) {
        obs_->tracer.BindPath(write.path, land);
      }
    }
  }
  return commit;
}

}  // namespace configerator
