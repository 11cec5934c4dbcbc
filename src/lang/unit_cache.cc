#include "src/lang/unit_cache.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/lang/import_resolver.h"

namespace configerator {

const CompiledUnitCache::Source& CompiledUnitCache::Intern(
    const std::string& path, const std::string& content) {
  // Byte comparison against the last seen source is strictly more precise
  // than comparing hashes, and skips the SHA-256 on the (overwhelmingly
  // common in steady state) unchanged path.
  Source& slot = sources_[path];
  if (slot.content == nullptr || *slot.content != content) {
    slot.content = std::make_shared<const std::string>(content);
    slot.hash = Sha256::Hash(content);
  }
  return slot;
}

Result<std::shared_ptr<Module>> CompiledUnitCache::GetOrParse(
    const std::string& path, const std::string& content) {
  return parses_.GetOrParse(path, Intern(path, content).content);
}

const CompiledUnitCache::MemoizedOutput* CompiledUnitCache::FindOutput(
    const Sha256Digest& closure_digest) {
  auto it = outputs_.find(closure_digest);
  if (it == outputs_.end()) {
    ++output_misses_;
    return nullptr;
  }
  ++output_hits_;
  return &it->second;
}

void CompiledUnitCache::StoreOutput(const Sha256Digest& closure_digest,
                                    MemoizedOutput result) {
  outputs_[closure_digest] = std::move(result);
}

namespace {

// Extracts `include "path"` targets from Thrift schema text. A deliberately
// shallow scan — the IDL parser accepts exactly this shape (schema.cc), so
// matching line-leading `include` with a quoted path sees every edge the
// parser would follow.
std::vector<std::string> ScanSchemaIncludes(const std::string& source) {
  std::vector<std::string> includes;
  size_t pos = 0;
  while (pos < source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string::npos) {
      eol = source.size();
    }
    std::string_view line(source.data() + pos, eol - pos);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.starts_with("include")) {
      size_t open = line.find('"');
      if (open != std::string_view::npos) {
        size_t close = line.find('"', open + 1);
        if (close != std::string_view::npos) {
          includes.emplace_back(line.substr(open + 1, close - open - 1));
        }
      }
    }
    pos = eol + 1;
  }
  return includes;
}

class ClosureHasher {
 public:
  ClosureHasher(const SourceReader& reader, CompiledUnitCache* cache)
      : reader_(reader), cache_(cache) {}

  Result<Sha256Digest> ModuleDigest(const std::string& path) {
    if (!visiting_.insert(path).second) {
      // Cycle: the compiler rejects it at evaluation time; here it just must
      // not recurse forever. A marker keeps the digest well-defined.
      return Sha256::Hash("cycle\n" + path);
    }
    auto result = ModuleDigestInner(path);
    visiting_.erase(path);
    return result;
  }

 private:
  using DigestNode = CompiledUnitCache::DigestNode;

  Result<Sha256Digest> ChildDigest(const DigestNode::Child& child) {
    if (child.is_schema) {
      return SchemaDigest(child.path);
    }
    return ModuleDigest(child.path);
  }

  // True when a memoized node's recorded children all still digest to the
  // values that fed `node.digest` — the steady-state path, which recursively
  // byte-compares every file in the subtree but computes no hashes.
  Result<bool> ChildrenUnchanged(const DigestNode& node) {
    for (const DigestNode::Child& child : node.children) {
      ASSIGN_OR_RETURN(Sha256Digest digest, ChildDigest(child));
      if (digest != child.digest) {
        return false;
      }
    }
    return true;
  }

  Result<Sha256Digest> ModuleDigestInner(const std::string& path) {
    ASSIGN_OR_RETURN(std::string content, reader_(path));
    const CompiledUnitCache::Source& source = cache_->Intern(path, content);
    auto& memos = cache_->digest_nodes();
    auto memo = memos.find("m:" + path);
    if (memo != memos.end() && memo->second.source == source.content) {
      ASSIGN_OR_RETURN(bool unchanged, ChildrenUnchanged(memo->second));
      if (unchanged) {
        return memo->second.digest;
      }
    }
    // Something changed (or first walk): parse to discover import edges,
    // recompute the subtree digest, and re-memoize.
    ASSIGN_OR_RETURN(std::shared_ptr<const Module> module,
                     cache_->GetOrParse(path, content));
    DigestNode node;
    node.source = source.content;
    for (const ImportTarget& edge : CollectImports(*module)) {
      if (edge.kind == ImportTarget::Kind::kDynamic) {
        return InvalidConfigError(
            path + ": computed import path defeats static closure hashing");
      }
      bool is_schema = edge.kind == ImportTarget::Kind::kSchema;
      auto same = [&](const DigestNode::Child& prior) {
        return prior.path == edge.path && prior.is_schema == is_schema;
      };
      if (std::none_of(node.children.begin(), node.children.end(), same)) {
        node.children.push_back({edge.path, is_schema, {}});
      }
    }
    Sha256 hasher;
    hasher.Update("csl-module\n");
    hasher.Update(path);
    hasher.Update("\n");
    hasher.Update(source.hash.ToHex());
    hasher.Update("\n");
    for (DigestNode::Child& child : node.children) {
      ASSIGN_OR_RETURN(child.digest, ChildDigest(child));
      hasher.Update(child.is_schema ? "schema " : "module ");
      hasher.Update(child.path);
      hasher.Update("\n");
      hasher.Update(child.digest.ToHex());
      hasher.Update("\n");
    }
    node.digest = hasher.Finish();
    DigestNode& slot = memos["m:" + path];
    slot = std::move(node);
    return slot.digest;
  }

  Result<Sha256Digest> SchemaDigest(const std::string& path) {
    if (!visiting_.insert(path).second) {
      return Sha256::Hash("cycle\n" + path);
    }
    auto result = SchemaDigestInner(path);
    visiting_.erase(path);
    return result;
  }

  Result<Sha256Digest> SchemaDigestInner(const std::string& path) {
    ASSIGN_OR_RETURN(std::string content, reader_(path));
    const CompiledUnitCache::Source& source = cache_->Intern(path, content);
    // The validator companion is part of the schema's behavior, and it can
    // appear or vanish without the schema's own source changing — probe its
    // existence on every walk, memo or not.
    std::string validator_path = path + "-cvalidator";
    auto validator_source = reader_(validator_path);
    bool has_validator = validator_source.ok();
    if (!has_validator &&
        validator_source.status().code() != StatusCode::kNotFound) {
      return validator_source.status();
    }
    auto& memos = cache_->digest_nodes();
    auto memo = memos.find("s:" + path);
    if (memo != memos.end() && memo->second.source == source.content &&
        memo->second.has_validator == has_validator) {
      ASSIGN_OR_RETURN(bool unchanged, ChildrenUnchanged(memo->second));
      if (unchanged) {
        return memo->second.digest;
      }
    }
    DigestNode node;
    node.source = source.content;
    node.has_validator = has_validator;
    Sha256 hasher;
    hasher.Update("thrift-schema\n");
    hasher.Update(path);
    hasher.Update("\n");
    hasher.Update(source.hash.ToHex());
    hasher.Update("\n");
    for (const std::string& inc : ScanSchemaIncludes(content)) {
      DigestNode::Child child;
      child.path = inc;
      child.is_schema = true;
      ASSIGN_OR_RETURN(child.digest, SchemaDigest(inc));
      hasher.Update("include ");
      hasher.Update(inc);
      hasher.Update("\n");
      hasher.Update(child.digest.ToHex());
      hasher.Update("\n");
      node.children.push_back(std::move(child));
    }
    if (has_validator) {
      // The validator is a CSL module of its own, with its own closure.
      DigestNode::Child child;
      child.path = validator_path;
      ASSIGN_OR_RETURN(child.digest, ModuleDigest(validator_path));
      hasher.Update("validator\n");
      hasher.Update(child.digest.ToHex());
      hasher.Update("\n");
      node.children.push_back(std::move(child));
    } else {
      hasher.Update("no-validator\n");
    }
    node.digest = hasher.Finish();
    DigestNode& slot = memos["s:" + path];
    slot = std::move(node);
    return slot.digest;
  }

  const SourceReader& reader_;
  CompiledUnitCache* cache_;
  std::set<std::string> visiting_;
};

}  // namespace

Result<Sha256Digest> ClosureDigest(const std::string& path,
                                   const SourceReader& reader,
                                   CompiledUnitCache* cache) {
  ClosureHasher hasher(reader, cache);
  return hasher.ModuleDigest(path);
}

}  // namespace configerator
