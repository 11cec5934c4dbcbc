#include "src/vcs/multirepo.h"

#include <algorithm>

namespace configerator {

MultiRepo::MultiRepo() {
  partitions_[""] = Partition{std::make_unique<Repository>("default"),
                              std::make_unique<std::mutex>()};
}

Status MultiRepo::AddPartition(const std::string& prefix) {
  if (prefix.empty()) {
    return InvalidArgumentError("partition prefix must be nonempty");
  }
  auto [it, inserted] = partitions_.try_emplace(
      prefix, Partition{std::make_unique<Repository>(prefix),
                        std::make_unique<std::mutex>()});
  if (!inserted) {
    return AlreadyExistsError("partition '" + prefix + "' already exists");
  }
  return OkStatus();
}

const std::string* MultiRepo::MatchPrefix(const std::string& path) const {
  const std::string* best = nullptr;
  for (const auto& [prefix, partition] : partitions_) {
    if (prefix.empty() || path.compare(0, prefix.size(), prefix) == 0) {
      if (best == nullptr || prefix.size() > best->size()) {
        best = &prefix;
      }
    }
  }
  return best;
}

Repository* MultiRepo::RepoFor(const std::string& path) {
  const std::string* prefix = MatchPrefix(path);
  return partitions_.at(*prefix).repo.get();
}

const Repository* MultiRepo::RepoFor(const std::string& path) const {
  const std::string* prefix = MatchPrefix(path);
  return partitions_.at(*prefix).repo.get();
}

Result<std::vector<ObjectId>> MultiRepo::Commit(
    const std::string& author, const std::string& message,
    const std::vector<FileWrite>& writes, int64_t timestamp_ms) {
  // Split writes by partition, preserving order within each.
  std::map<std::string, std::vector<FileWrite>> by_partition;
  for (const FileWrite& write : writes) {
    const std::string* prefix = MatchPrefix(write.path);
    by_partition[*prefix].push_back(write);
  }
  std::vector<ObjectId> commit_ids;
  for (auto& [prefix, partition_writes] : by_partition) {
    Partition& partition = partitions_.at(prefix);
    std::lock_guard<std::mutex> lock(*partition.mutex);
    ASSIGN_OR_RETURN(ObjectId id, partition.repo->Commit(author, message,
                                                         partition_writes,
                                                         timestamp_ms));
    commit_ids.push_back(id);
  }
  return commit_ids;
}

Result<std::string> MultiRepo::ReadFile(const std::string& path) const {
  return RepoFor(path)->ReadFile(path);
}

bool MultiRepo::FileExists(const std::string& path) const {
  return RepoFor(path)->FileExists(path);
}

std::vector<std::string> MultiRepo::ListFiles() const {
  std::vector<std::string> all;
  for (const auto& [prefix, partition] : partitions_) {
    std::vector<std::string> files = partition.repo->ListFiles();
    all.insert(all.end(), files.begin(), files.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace configerator
