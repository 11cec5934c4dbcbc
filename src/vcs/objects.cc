#include "src/vcs/objects.h"

#include <algorithm>
#include <cassert>

#include "src/util/strings.h"

namespace configerator {

namespace {

const char* KindTag(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kBlob:
      return "blob";
    case ObjectKind::kTree:
      return "tree";
    case ObjectKind::kCommit:
      return "commit";
  }
  return "?";
}

ObjectId HashObject(ObjectKind kind, std::string_view encoded) {
  Sha256 hasher;
  hasher.Update(KindTag(kind));
  hasher.Update("\0", 1);
  hasher.Update(encoded);
  return hasher.Finish();
}

}  // namespace

const TreeObject::Entry* TreeObject::Find(std::string_view name) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const Entry& entry, std::string_view key) { return entry.name < key; });
  return it != entries.end() && it->name == name ? &*it : nullptr;
}

std::string TreeObject::Encode() const {
  // Each line is "<t|b> <hex-id> <name>\n": 68 bytes plus the name.
  size_t size = 0;
  for (const Entry& entry : entries) {
    size += 68 + entry.name.size();
  }
  std::string out(size, '\0');
  char* p = out.data();
  for (const Entry& entry : entries) {
    *p++ = entry.is_tree ? 't' : 'b';
    *p++ = ' ';
    entry.id.WriteHex(p);
    p += 64;
    *p++ = ' ';
    p = std::copy(entry.name.begin(), entry.name.end(), p);
    *p++ = '\n';
  }
  return out;
}

std::string CommitObject::Encode() const {
  std::string out = "tree " + tree.ToHex() + "\n";
  for (const ObjectId& parent : parents) {
    out += "parent " + parent.ToHex() + "\n";
  }
  out += "author " + author + "\n";
  out += StrFormat("timestamp %lld\n", static_cast<long long>(timestamp_ms));
  out += "\n";
  out += message;
  return out;
}

Result<CommitObject> CommitObject::Decode(std::string_view data) {
  CommitObject commit;
  size_t pos = 0;
  bool saw_tree = false;
  while (pos < data.size()) {
    size_t eol = data.find('\n', pos);
    if (eol == std::string_view::npos) {
      return CorruptionError("malformed commit: missing header terminator");
    }
    std::string_view line = data.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      commit.message = std::string(data.substr(pos));
      if (!saw_tree) {
        return CorruptionError("malformed commit: no tree");
      }
      return commit;
    }
    if (line.starts_with("tree ")) {
      if (!Sha256Digest::FromHex(line.substr(5), &commit.tree)) {
        return CorruptionError("malformed commit tree id");
      }
      saw_tree = true;
    } else if (line.starts_with("parent ")) {
      ObjectId parent;
      if (!Sha256Digest::FromHex(line.substr(7), &parent)) {
        return CorruptionError("malformed commit parent id");
      }
      commit.parents.push_back(parent);
    } else if (line.starts_with("author ")) {
      commit.author = std::string(line.substr(7));
    } else if (line.starts_with("timestamp ")) {
      commit.timestamp_ms = std::strtoll(std::string(line.substr(10)).c_str(),
                                         nullptr, 10);
    } else {
      return CorruptionError("malformed commit header line");
    }
  }
  return CorruptionError("malformed commit: truncated");
}

ObjectId ObjectStore::Insert(const ObjectId& id, size_t encoded_bytes,
                             Stored stored) {
  if (objects_.try_emplace(id, std::move(stored)).second) {
    total_bytes_ += encoded_bytes;
  }
  return id;
}

Result<const ObjectStore::Stored*> ObjectStore::Get(const ObjectId& id,
                                                    ObjectKind expected) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return NotFoundError("no object " + id.ShortHex());
  }
  if (it->second.kind != expected) {
    return CorruptionError(StrFormat("object %s is a %s, expected %s",
                                     id.ShortHex().c_str(),
                                     KindTag(it->second.kind), KindTag(expected)));
  }
  return &it->second;
}

ObjectId ObjectStore::PutBlob(std::string data) {
  ObjectId id = HashObject(ObjectKind::kBlob, data);
  size_t bytes = data.size();
  return Insert(id, bytes, Stored{ObjectKind::kBlob, std::move(data), {}});
}

ObjectId ObjectStore::PutTree(TreeObject tree) {
  auto by_name = [](const TreeObject::Entry& a, const TreeObject::Entry& b) {
    return a.name < b.name;
  };
  if (!std::is_sorted(tree.entries.begin(), tree.entries.end(), by_name)) {
    std::sort(tree.entries.begin(), tree.entries.end(), by_name);
  }
  assert(std::adjacent_find(tree.entries.begin(), tree.entries.end(),
                            [](const TreeObject::Entry& a,
                               const TreeObject::Entry& b) {
                              return a.name == b.name;
                            }) == tree.entries.end());
  std::string encoded = tree.Encode();
  return Insert(HashObject(ObjectKind::kTree, encoded), encoded.size(),
                Stored{ObjectKind::kTree, {}, std::move(tree)});
}

ObjectId ObjectStore::PutCommit(const CommitObject& commit) {
  std::string encoded = commit.Encode();
  ObjectId id = HashObject(ObjectKind::kCommit, encoded);
  size_t bytes = encoded.size();
  return Insert(id, bytes, Stored{ObjectKind::kCommit, std::move(encoded), {}});
}

Result<std::string> ObjectStore::GetBlob(const ObjectId& id) const {
  ASSIGN_OR_RETURN(const Stored* stored, Get(id, ObjectKind::kBlob));
  return stored->data;
}

Result<const TreeObject*> ObjectStore::GetTree(const ObjectId& id) const {
  ASSIGN_OR_RETURN(const Stored* stored, Get(id, ObjectKind::kTree));
  return &stored->tree;
}

Result<CommitObject> ObjectStore::GetCommit(const ObjectId& id) const {
  ASSIGN_OR_RETURN(const Stored* stored, Get(id, ObjectKind::kCommit));
  return CommitObject::Decode(stored->data);
}

}  // namespace configerator
