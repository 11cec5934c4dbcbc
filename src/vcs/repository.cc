#include "src/vcs/repository.h"

#include <algorithm>

#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {

Repository::Repository(std::string name) : name_(std::move(name)) {}

Status Repository::ValidatePath(const std::string& path) {
  if (path.empty() || path.front() == '/' || path.back() == '/') {
    return InvalidArgumentError("invalid path: '" + path + "'");
  }
  if (path.find('\n') != std::string::npos) {
    return InvalidArgumentError("path contains newline");
  }
  if (path.find("//") != std::string::npos) {
    return InvalidArgumentError("path contains empty segment: '" + path + "'");
  }
  size_t segments =
      1 + static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
  if (segments > kMaxPathSegments) {
    return InvalidArgumentError(StrFormat(
        "path has %zu segments; the limit is %zu", segments, kMaxPathSegments));
  }
  return OkStatus();
}

void Repository::IndexScan() const {
  if (!index_scan_enabled_) {
    return;
  }
  // Emulates `git status`: touch every tracked entry once. The work per
  // entry is a cheap hash mix, like a stat() cache probe.
  uint64_t acc = 0;
  for (const auto& [path, id] : manifest_) {
    acc ^= StableHash64(path);
    acc += id.bytes[0];
    acc = (acc << 13) | (acc >> 51);
  }
  index_scan_sink_ ^= acc;
}

Status Repository::ValidateWrites(const std::vector<FileWrite>& writes) const {
  // All-or-nothing: the whole batch is checked against the current manifest
  // (plus earlier writes in the same batch) before anything mutates, so a
  // rejected commit leaves no phantom state behind.
  std::map<std::string, bool> batch_state;  // path -> exists after batch.
  auto exists = [this, &batch_state](const std::string& path) {
    auto it = batch_state.find(path);
    if (it != batch_state.end()) {
      return it->second;
    }
    return manifest_.count(path) > 0;
  };

  for (const FileWrite& write : writes) {
    RETURN_IF_ERROR(ValidatePath(write.path));
    if (!write.content.has_value()) {
      if (!exists(write.path)) {
        return NotFoundError("cannot delete nonexistent path: " + write.path);
      }
      batch_state[write.path] = false;
      continue;
    }
    // A path may not pass through an existing file ("a" blocks "a/b"), and a
    // file may not land on an existing directory ("a/b" blocks "a") — either
    // would collide in the parent tree's namespace.
    std::vector<std::string> segments = StrSplit(write.path, '/');
    segments.pop_back();
    std::string prefix;
    for (const std::string& seg : segments) {
      prefix += seg;
      if (exists(prefix)) {
        return InvalidArgumentError("'" + prefix + "' is a file; cannot create '" +
                                    write.path + "' beneath it");
      }
      prefix += '/';
    }
    std::string dir_prefix = write.path + "/";
    auto below = manifest_.lower_bound(dir_prefix);
    bool has_children =
        below != manifest_.end() &&
        below->first.compare(0, dir_prefix.size(), dir_prefix) == 0;
    if (!has_children) {
      for (const auto& [path, present] : batch_state) {
        if (present && path.compare(0, dir_prefix.size(), dir_prefix) == 0) {
          has_children = true;
          break;
        }
      }
    }
    if (has_children && !exists(write.path)) {
      return InvalidArgumentError(
          "'" + write.path + "' is a directory; cannot overwrite it with a file");
    }
    batch_state[write.path] = true;
  }
  return OkStatus();
}

Status Repository::ApplyWrite(const FileWrite& write) {
  ObjectId blob_id;
  if (write.content.has_value()) {
    blob_id = store_.PutBlob(*write.content);
    auto [entry, added] = manifest_.try_emplace(write.path, blob_id);
    if (!added) {
      if (entry->second == blob_id) {
        return OkStatus();  // Head's bytes: no directory changes.
      }
      entry->second = blob_id;
    }
  } else if (manifest_.erase(write.path) == 0) {
    return NotFoundError("cannot delete nonexistent path: " + write.path);
  }

  std::vector<std::string> segments = StrSplit(write.path, '/');
  std::string filename = segments.back();
  segments.pop_back();

  if (!write.content.has_value()) {
    std::vector<DirNode*> chain{&root_};
    DirNode* node = &root_;
    for (const std::string& seg : segments) {
      auto it = node->dirs.find(seg);
      if (it == node->dirs.end()) {
        return InternalError("manifest/tree desync at " + write.path);
      }
      node = &it->second;
      chain.push_back(node);
    }
    node->files.erase(filename);
    for (DirNode* n : chain) {
      n->dirty = true;
    }
    // Prune now-empty directories bottom-up.
    for (size_t i = chain.size(); i-- > 1;) {
      DirNode* n = chain[i];
      if (n->files.empty() && n->dirs.empty()) {
        chain[i - 1]->dirs.erase(segments[i - 1]);
      } else {
        break;
      }
    }
    return OkStatus();
  }

  DirNode* node = &root_;
  node->dirty = true;
  for (const std::string& seg : segments) {
    node = &node->dirs[seg];
    node->dirty = true;
  }
  node->files[filename] = blob_id;
  return OkStatus();
}

ObjectId Repository::FlushTree(DirNode* node) {
  if (!node->dirty) {
    return node->id;
  }
  // Merge the two name-sorted maps into the tree's sorted entries; a name is
  // never both a directory and a file.
  TreeObject tree;
  tree.entries.reserve(node->dirs.size() + node->files.size());
  auto dir = node->dirs.begin();
  auto file = node->files.begin();
  while (dir != node->dirs.end() || file != node->files.end()) {
    if (file == node->files.end() ||
        (dir != node->dirs.end() && dir->first < file->first)) {
      tree.entries.push_back({dir->first, FlushTree(&dir->second),
                              /*is_tree=*/true});
      ++dir;
    } else {
      tree.entries.push_back({file->first, file->second, /*is_tree=*/false});
      ++file;
    }
  }
  node->id = store_.PutTree(std::move(tree));
  node->dirty = false;
  return node->id;
}

Result<ObjectId> Repository::Commit(const std::string& author,
                                    const std::string& message,
                                    const std::vector<FileWrite>& writes,
                                    int64_t timestamp_ms) {
  IndexScan();
  RETURN_IF_ERROR(ValidateWrites(writes));
  for (const FileWrite& write : writes) {
    RETURN_IF_ERROR(ApplyWrite(write));
  }
  CommitObject commit;
  commit.tree = FlushTree(&root_);
  if (head_.has_value()) {
    commit.parents.push_back(*head_);
  }
  commit.author = author;
  commit.message = message;
  commit.timestamp_ms = timestamp_ms;
  head_ = store_.PutCommit(commit);
  ++commit_count_;
  return *head_;
}

Result<std::string> Repository::ReadFile(const std::string& path) const {
  auto it = manifest_.find(path);
  if (it == manifest_.end()) {
    return NotFoundError("no file '" + path + "' at head of " + name_);
  }
  return store_.GetBlob(it->second);
}

std::optional<ObjectId> Repository::HeadBlobId(const std::string& path) const {
  auto it = manifest_.find(path);
  if (it == manifest_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<std::string> Repository::ListFiles() const {
  std::vector<std::string> paths;
  paths.reserve(manifest_.size());
  for (const auto& [path, id] : manifest_) {
    paths.push_back(path);
  }
  return paths;
}

std::vector<std::string> Repository::ListFilesUnder(
    const std::string& prefix) const {
  std::vector<std::string> paths;
  for (auto it = manifest_.lower_bound(prefix); it != manifest_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    paths.push_back(it->first);
  }
  return paths;
}

Result<CommitObject> Repository::GetCommit(const ObjectId& id) const {
  return store_.GetCommit(id);
}

Result<std::string> Repository::ReadFileAt(const ObjectId& commit_id,
                                           const std::string& path) const {
  ASSIGN_OR_RETURN(CommitObject commit, store_.GetCommit(commit_id));
  std::vector<std::string> segments = StrSplit(path, '/');
  ObjectId current = commit.tree;
  for (size_t i = 0; i < segments.size(); ++i) {
    ASSIGN_OR_RETURN(const TreeObject* tree, store_.GetTree(current));
    const TreeObject::Entry* entry = tree->Find(segments[i]);
    if (entry == nullptr) {
      return NotFoundError(StrFormat("no file '%s' in commit %s", path.c_str(),
                                     commit_id.ShortHex().c_str()));
    }
    bool is_last = i + 1 == segments.size();
    if (is_last) {
      if (entry->is_tree) {
        return InvalidArgumentError("'" + path + "' is a directory");
      }
      return store_.GetBlob(entry->id);
    }
    if (!entry->is_tree) {
      return NotFoundError("'" + segments[i] + "' is not a directory in " + path);
    }
    current = entry->id;
  }
  return InternalError("unreachable");
}

Result<std::vector<ObjectId>> Repository::Log(size_t limit) const {
  std::vector<ObjectId> out;
  std::optional<ObjectId> current = head_;
  while (current.has_value() && out.size() < limit) {
    out.push_back(*current);
    ASSIGN_OR_RETURN(CommitObject commit, store_.GetCommit(*current));
    if (commit.parents.empty()) {
      break;
    }
    current = commit.parents.front();
  }
  return out;
}

Status Repository::DiffTrees(const std::optional<ObjectId>& old_tree,
                             const std::optional<ObjectId>& new_tree,
                             const std::string& prefix,
                             std::vector<FileDelta>* out) const {
  if (old_tree == new_tree) {
    return OkStatus();  // Identical subtrees: skip, the content-address wins.
  }
  const TreeObject empty{};
  const TreeObject* old_obj = &empty;
  const TreeObject* new_obj = &empty;
  if (old_tree.has_value()) {
    ASSIGN_OR_RETURN(old_obj, store_.GetTree(*old_tree));
  }
  if (new_tree.has_value()) {
    ASSIGN_OR_RETURN(new_obj, store_.GetTree(*new_tree));
  }

  auto old_it = old_obj->entries.begin();
  auto new_it = new_obj->entries.begin();
  auto emit_side = [&](const TreeObject::Entry& entry, bool is_old) -> Status {
    std::string path = prefix.empty() ? entry.name : prefix + "/" + entry.name;
    if (entry.is_tree) {
      return DiffTrees(is_old ? std::optional<ObjectId>(entry.id) : std::nullopt,
                       is_old ? std::nullopt : std::optional<ObjectId>(entry.id),
                       path, out);
    }
    if (is_old) {
      out->push_back({path, FileDelta::Kind::kDeleted, entry.id, std::nullopt});
    } else {
      out->push_back({path, FileDelta::Kind::kAdded, std::nullopt, entry.id});
    }
    return OkStatus();
  };

  while (old_it != old_obj->entries.end() || new_it != new_obj->entries.end()) {
    if (new_it == new_obj->entries.end() ||
        (old_it != old_obj->entries.end() && old_it->name < new_it->name)) {
      RETURN_IF_ERROR(emit_side(*old_it, /*is_old=*/true));
      ++old_it;
      continue;
    }
    if (old_it == old_obj->entries.end() || new_it->name < old_it->name) {
      RETURN_IF_ERROR(emit_side(*new_it, /*is_old=*/false));
      ++new_it;
      continue;
    }
    // Same name on both sides.
    const TreeObject::Entry& oe = *old_it;
    const TreeObject::Entry& ne = *new_it;
    std::string path = prefix.empty() ? oe.name : prefix + "/" + oe.name;
    if (oe.is_tree && ne.is_tree) {
      RETURN_IF_ERROR(DiffTrees(oe.id, ne.id, path, out));
    } else if (!oe.is_tree && !ne.is_tree) {
      if (!(oe.id == ne.id)) {
        out->push_back({path, FileDelta::Kind::kModified, oe.id, ne.id});
      }
    } else {
      // File replaced by directory or vice versa.
      RETURN_IF_ERROR(emit_side(oe, /*is_old=*/true));
      RETURN_IF_ERROR(emit_side(ne, /*is_old=*/false));
    }
    ++old_it;
    ++new_it;
  }
  return OkStatus();
}

Result<std::vector<FileDelta>> Repository::DiffCommits(
    const std::optional<ObjectId>& old_commit,
    const std::optional<ObjectId>& new_commit) const {
  std::optional<ObjectId> old_tree;
  std::optional<ObjectId> new_tree;
  if (old_commit.has_value()) {
    ASSIGN_OR_RETURN(CommitObject c, store_.GetCommit(*old_commit));
    old_tree = c.tree;
  }
  if (new_commit.has_value()) {
    ASSIGN_OR_RETURN(CommitObject c, store_.GetCommit(*new_commit));
    new_tree = c.tree;
  }
  std::vector<FileDelta> out;
  RETURN_IF_ERROR(DiffTrees(old_tree, new_tree, "", &out));
  return out;
}

}  // namespace configerator
