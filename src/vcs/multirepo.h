// Partitioned multi-repository namespace (paper §3.6): files under different
// path prefixes ("feed/", "tao/") are served by different repositories that
// accept commits concurrently, while code sees one global name space.
// Cross-repository reads work transparently; a commit whose writes span
// partitions is split into per-partition commits.

#ifndef SRC_VCS_MULTIREPO_H_
#define SRC_VCS_MULTIREPO_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/vcs/repository.h"

namespace configerator {

class MultiRepo {
 public:
  // Creates the namespace with a default partition (empty prefix) that
  // catches paths not matching any other partition.
  MultiRepo();

  // Adds a partition serving paths that start with `prefix` (e.g. "feed/").
  // Longest-prefix match wins. Returns an error if the prefix already exists.
  Status AddPartition(const std::string& prefix);

  // Partition lookup for a path.
  Repository* RepoFor(const std::string& path);
  const Repository* RepoFor(const std::string& path) const;

  // Commits `writes`, splitting them across partitions. Each partition's
  // commit is independent (concurrent commits to different partitions do not
  // contend). Returns one commit id per touched partition.
  Result<std::vector<ObjectId>> Commit(const std::string& author,
                                       const std::string& message,
                                       const std::vector<FileWrite>& writes,
                                       int64_t timestamp_ms = 0);

  Result<std::string> ReadFile(const std::string& path) const;
  bool FileExists(const std::string& path) const;
  std::vector<std::string> ListFiles() const;

  size_t partition_count() const { return partitions_.size(); }

 private:
  struct Partition {
    std::unique_ptr<Repository> repo;
    std::unique_ptr<std::mutex> mutex;
  };

  const std::string* MatchPrefix(const std::string& path) const;

  // Keyed by prefix; "" is the default partition.
  std::map<std::string, Partition> partitions_;
};

}  // namespace configerator

#endif  // SRC_VCS_MULTIREPO_H_
