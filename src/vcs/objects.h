// Content-addressed object model for the version-control substrate: blobs,
// trees and commits, identified by the SHA-256 of their canonical encoding —
// the same shape as git's object database. The paper stores config source
// and compiled JSON in git; this substrate reproduces the behaviours the
// evaluation depends on (commit cost growth, conflict detection, history).

#ifndef SRC_VCS_OBJECTS_H_
#define SRC_VCS_OBJECTS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/sha256.h"
#include "src/util/status.h"

namespace configerator {

using ObjectId = Sha256Digest;

enum class ObjectKind { kBlob, kTree, kCommit };

// A directory: a vector of (name, object id, is_tree) entries, sorted by
// name, with names unique, so the encoding is canonical. The store keeps
// trees parsed; the encoding exists only to be hashed into the tree's id.
struct TreeObject {
  struct Entry {
    std::string name;
    ObjectId id;
    bool is_tree = false;

    bool operator==(const Entry&) const = default;
  };
  // Sorted by name once stored (ObjectStore::PutTree sorts).
  std::vector<Entry> entries;

  // The entry named `name`, or nullptr. A binary search, so `entries` must
  // be sorted.
  const Entry* Find(std::string_view name) const;

  // "<t|b> <hex-id> <name>\n" per entry, in `entries` order, built in one
  // pre-sized string.
  std::string Encode() const;
};

struct CommitObject {
  ObjectId tree;
  std::vector<ObjectId> parents;
  std::string author;
  std::string message;
  int64_t timestamp_ms = 0;  // Logical/simulated time, supplied by callers.

  std::string Encode() const;
  static Result<CommitObject> Decode(std::string_view data);
};

// In-memory content-addressed store. Objects are immutable once inserted.
// Blobs and commits are kept as their canonical bytes, trees as parsed
// TreeObjects, so reading history never re-parses a directory.
class ObjectStore {
 public:
  // Stores the object under the content hash of its canonical encoding
  // (prefixed with the kind) and returns the id. Idempotent.
  ObjectId PutBlob(std::string data);
  // Sorts `tree.entries` by name first if they arrive unsorted, so equal
  // entry sets give equal ids whatever order they were built in. Entry names
  // must be unique (asserted).
  ObjectId PutTree(TreeObject tree);
  ObjectId PutCommit(const CommitObject& commit);

  Result<std::string> GetBlob(const ObjectId& id) const;
  // The pointer stays valid for the store's lifetime.
  Result<const TreeObject*> GetTree(const ObjectId& id) const;
  Result<CommitObject> GetCommit(const ObjectId& id) const;

  bool Contains(const ObjectId& id) const { return objects_.count(id) > 0; }
  size_t object_count() const { return objects_.size(); }
  // Total encoded bytes stored — proxy for repository size on disk.
  size_t total_bytes() const { return total_bytes_; }

 private:
  struct Stored {
    ObjectKind kind;
    std::string data;  // A blob's or commit's canonical bytes.
    TreeObject tree;   // A tree's entries.
  };

  // Inserts `stored` under `id` unless present, charging `encoded_bytes`.
  ObjectId Insert(const ObjectId& id, size_t encoded_bytes, Stored stored);
  Result<const Stored*> Get(const ObjectId& id, ObjectKind expected) const;

  std::unordered_map<ObjectId, Stored> objects_;
  size_t total_bytes_ = 0;
};

}  // namespace configerator

#endif  // SRC_VCS_OBJECTS_H_
