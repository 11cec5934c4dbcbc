// A git-like repository: branch ref over a commit DAG of hierarchical trees.
//
// Two costs matter for the paper's Figure 13 (commit throughput degrades as
// the repository grows) and are reproduced faithfully here:
//   * an index scan per commit — git checks whether the local clone is up to
//     date by stat()ing every tracked file; we charge an O(#files) pass over
//     the head manifest;
//   * tree rewriting along changed paths — directory objects containing the
//     changed files are re-encoded and re-hashed. A write whose bytes match
//     head's changes no directory, so it costs one blob hash and nothing
//     more; a commit pays for the directories it really changes.
// The multi-repository remedy (§3.6) is in multirepo.h.

#ifndef SRC_VCS_REPOSITORY_H_
#define SRC_VCS_REPOSITORY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/vcs/objects.h"

namespace configerator {

// One file mutation in a commit. `content == nullopt` deletes the path.
struct FileWrite {
  std::string path;
  std::optional<std::string> content;
};

// A path-level difference between two commits, with the file's blob id on
// each side: `old_blob` is set unless the file was added, `new_blob` unless
// it was deleted. Readers fetch either side with store().GetBlob, without
// walking a tree.
struct FileDelta {
  enum class Kind { kAdded, kDeleted, kModified };
  std::string path;
  Kind kind = Kind::kModified;
  std::optional<ObjectId> old_blob;
  std::optional<ObjectId> new_blob;
};

// Paths deeper than this are rejected: tree flushing and diffing recurse once
// per segment. Matches the CSL parser's AST depth cap.
inline constexpr size_t kMaxPathSegments = 256;

class Repository {
 public:
  explicit Repository(std::string name = "config");

  const std::string& name() const { return name_; }

  // Applies `writes` on top of head and advances the branch. Empty `writes`
  // or writes that change nothing still produce a commit (like --allow-empty)
  // so automation can heartbeat. Returns the new commit id.
  Result<ObjectId> Commit(const std::string& author, const std::string& message,
                          const std::vector<FileWrite>& writes,
                          int64_t timestamp_ms = 0);

  // Head state queries.
  std::optional<ObjectId> head() const { return head_; }
  bool FileExists(const std::string& path) const {
    return manifest_.count(path) > 0;
  }
  Result<std::string> ReadFile(const std::string& path) const;
  // The blob id of `path` at head; nullopt if there is no such file.
  std::optional<ObjectId> HeadBlobId(const std::string& path) const;
  std::vector<std::string> ListFiles() const;
  // Files under a directory prefix ("feed/" matches "feed/a.json").
  std::vector<std::string> ListFilesUnder(const std::string& prefix) const;
  size_t file_count() const { return manifest_.size(); }
  size_t commit_count() const { return commit_count_; }

  // Historical queries.
  Result<CommitObject> GetCommit(const ObjectId& id) const;
  Result<std::string> ReadFileAt(const ObjectId& commit_id,
                                 const std::string& path) const;
  // Commit ids from head backwards (first parent), newest first.
  Result<std::vector<ObjectId>> Log(size_t limit) const;

  // Path-level diff between two commits (either may be "empty" by passing
  // std::nullopt — useful against the pre-history state). Its cost grows with
  // the entries of the directories that changed, not with the repository.
  Result<std::vector<FileDelta>> DiffCommits(
      const std::optional<ObjectId>& old_commit,
      const std::optional<ObjectId>& new_commit) const;

  const ObjectStore& store() const { return store_; }

  // The emulated `git status` index refresh (on by default). Benches toggle
  // it to ablate its contribution to Fig 13.
  void set_index_scan_enabled(bool enabled) { index_scan_enabled_ = enabled; }

 private:
  // Mutable mirror of the head tree for incremental re-hashing.
  struct DirNode {
    std::map<std::string, DirNode> dirs;
    std::map<std::string, ObjectId> files;
    bool dirty = true;
    ObjectId id;  // Valid when !dirty.
  };

  static Status ValidatePath(const std::string& path);
  void IndexScan() const;
  // Pre-checks a whole batch against head + earlier batch writes; Commit
  // only mutates if this passes (all-or-nothing batches).
  Status ValidateWrites(const std::vector<FileWrite>& writes) const;
  Status ApplyWrite(const FileWrite& write);
  ObjectId FlushTree(DirNode* node);
  Status DiffTrees(const std::optional<ObjectId>& old_tree,
                   const std::optional<ObjectId>& new_tree,
                   const std::string& prefix,
                   std::vector<FileDelta>* out) const;

  std::string name_;
  ObjectStore store_;
  std::optional<ObjectId> head_;
  size_t commit_count_ = 0;
  DirNode root_;
  std::map<std::string, ObjectId> manifest_;  // path -> blob id at head.
  bool index_scan_enabled_ = true;
  mutable uint64_t index_scan_sink_ = 0;  // Defeats dead-code elimination.
};

}  // namespace configerator

#endif  // SRC_VCS_REPOSITORY_H_
