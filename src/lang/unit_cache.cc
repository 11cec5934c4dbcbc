#include "src/lang/unit_cache.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/lang/import_resolver.h"
#include "src/schema/schema.h"

namespace configerator {

const CompiledUnitCache::Unit& CompiledUnitCache::Intern(
    const std::string& path, const std::string& content) {
  return Version(path, content);
}

CompiledUnitCache::Unit& CompiledUnitCache::Version(
    const std::string& path, const std::string& content) {
  // Byte comparison against the kept versions is strictly more precise than
  // comparing hashes, and skips the SHA-256 on the (overwhelmingly common in
  // steady state) unchanged path.
  RecentVersions<Unit>& versions = units_[path];
  if (Unit* unit = versions.Find(
          [&](const Unit& u) { return *u.content == content; })) {
    return *unit;
  }
  Unit unit;
  unit.content = std::make_shared<const std::string>(content);
  unit.hash = Sha256::Hash(content);
  return versions.Add(std::move(unit));
}

Result<std::shared_ptr<Module>> CompiledUnitCache::GetOrParse(
    const std::string& path, const std::string& content,
    std::vector<LintDiagnostic>* lint_diags) {
  Unit& unit = Version(path, content);
  if (unit.parsed) {
    ++hits_;
  } else {
    ++misses_;
    auto parsed = ParseCsl(content, path, &unit.parse_diags);
    if (parsed.ok()) {
      unit.module = *parsed;
    } else {
      unit.parse_error = parsed.status();
    }
    unit.parsed = true;
  }
  if (lint_diags != nullptr) {
    lint_diags->insert(lint_diags->end(), unit.parse_diags.begin(),
                       unit.parse_diags.end());
  }
  if (unit.module == nullptr) {
    return unit.parse_error;
  }
  return unit.module;
}

const CompiledUnitCache::MemoizedOutput* CompiledUnitCache::FindOutput(
    const std::string& entry, const Sha256Digest& closure_digest) {
  StoredOutput* stored = outputs_[entry].Find(
      [&](const StoredOutput& s) { return s.digest == closure_digest; });
  if (stored == nullptr) {
    ++output_misses_;
    return nullptr;
  }
  ++output_hits_;
  return &stored->result;
}

void CompiledUnitCache::StoreOutput(const std::string& entry,
                                    const Sha256Digest& closure_digest,
                                    MemoizedOutput result) {
  outputs_[entry].Add(StoredOutput{closure_digest, std::move(result)});
}

size_t CompiledUnitCache::outputs_for(const std::string& entry) const {
  auto it = outputs_.find(entry);
  return it == outputs_.end() ? 0 : it->second.size();
}

namespace {

class ClosureHasher {
 public:
  ClosureHasher(const SourceReader& reader, CompiledUnitCache* cache)
      : reader_(reader), cache_(cache) {}

  Result<Sha256Digest> Digest(const std::string& path, bool is_schema) {
    if (!visiting_.insert(path).second) {
      // Cycle (a module import cycle, or a validator importing its own
      // schema): the compiler rejects or loads it at evaluation time; here
      // it just must not recurse forever. A marker keeps the digest
      // well-defined.
      return Sha256::Hash("cycle\n" + path);
    }
    auto result = is_schema ? SchemaDigest(path) : ModuleDigest(path);
    visiting_.erase(path);
    return result;
  }

 private:
  using DigestNode = CompiledUnitCache::DigestNode;
  using Memos = RecentVersions<DigestNode>;

  // A kept node for the same source bytes (and validator presence) has the
  // same import edges, so the walk only re-derives them from a parse when
  // no such node exists.
  static const DigestNode* SameShape(Memos& memos, const DigestNode& node) {
    return memos.Find([&](const DigestNode& memo) {
      return memo.source == node.source &&
             memo.has_validator == node.has_validator;
    });
  }

  // Digests `node`'s children, then returns the digest of the kept node
  // with the same source and child digests — the steady-state path, which
  // hashes nothing — or hashes `node` (through `hash`) and keeps it.
  template <typename Hash>
  Result<Sha256Digest> Finish(Memos& memos, DigestNode node, Hash hash) {
    for (DigestNode::Child& child : node.children) {
      ASSIGN_OR_RETURN(child.digest, Digest(child.path, child.is_schema));
    }
    const DigestNode* memo = memos.Find([&](const DigestNode& m) {
      if (m.source != node.source || m.has_validator != node.has_validator ||
          m.children.size() != node.children.size()) {
        return false;
      }
      for (size_t i = 0; i < m.children.size(); ++i) {
        if (m.children[i].digest != node.children[i].digest) {
          return false;
        }
      }
      return true;
    });
    if (memo != nullptr) {
      return memo->digest;
    }
    node.digest = hash(node);
    return memos.Add(std::move(node)).digest;
  }

  Result<Sha256Digest> ModuleDigest(const std::string& path) {
    ASSIGN_OR_RETURN(std::string content, reader_(path));
    const CompiledUnitCache::Unit& unit = cache_->Intern(path, content);
    Memos& memos = cache_->digest_nodes()["m:" + path];
    DigestNode node;
    node.source = unit.content;
    if (const DigestNode* shape = SameShape(memos, node)) {
      node.children = shape->children;
    } else {
      // New bytes: parse to discover the import edges.
      ASSIGN_OR_RETURN(std::shared_ptr<const Module> module,
                       cache_->GetOrParse(path, content));
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
    }
    return Finish(memos, std::move(node), [&](const DigestNode& n) {
      Sha256 hasher;
      hasher.Update("csl-module\n");
      hasher.Update(path);
      hasher.Update("\n");
      hasher.Update(unit.hash.ToHex());
      hasher.Update("\n");
      for (const DigestNode::Child& child : n.children) {
        hasher.Update(child.is_schema ? "schema " : "module ");
        hasher.Update(child.path);
        hasher.Update("\n");
        hasher.Update(child.digest.ToHex());
        hasher.Update("\n");
      }
      return hasher.Finish();
    });
  }

  Result<Sha256Digest> SchemaDigest(const std::string& path) {
    ASSIGN_OR_RETURN(std::string content, reader_(path));
    const CompiledUnitCache::Unit& unit = cache_->Intern(path, content);
    // The validator companion is part of the schema's behavior, and it can
    // appear or vanish without the schema's own source changing — probe its
    // existence on every walk, memo or not.
    std::string validator_path = path + "-cvalidator";
    auto validator_source = reader_(validator_path);
    Memos& memos = cache_->digest_nodes()["s:" + path];
    DigestNode node;
    node.source = unit.content;
    node.has_validator = validator_source.ok();
    if (!node.has_validator &&
        validator_source.status().code() != StatusCode::kNotFound) {
      return validator_source.status();
    }
    if (const DigestNode* shape = SameShape(memos, node)) {
      node.children = shape->children;
    } else {
      // New bytes: load the schema to learn the includes its parse follows.
      // A schema that fails to load fails the digest, like a module that
      // fails to parse.
      SchemaRegistry schemas;
      RETURN_IF_ERROR(schemas.Load(path, reader_));
      for (const std::string& inc : schemas.IncludesOf(path)) {
        node.children.push_back({inc, /*is_schema=*/true, {}});
      }
      if (node.has_validator) {
        // The validator is a CSL module of its own, with its own closure.
        node.children.push_back({validator_path, /*is_schema=*/false, {}});
      }
    }
    return Finish(memos, std::move(node), [&](const DigestNode& n) {
      Sha256 hasher;
      hasher.Update("thrift-schema\n");
      hasher.Update(path);
      hasher.Update("\n");
      hasher.Update(unit.hash.ToHex());
      hasher.Update("\n");
      for (const DigestNode::Child& child : n.children) {
        if (child.is_schema) {
          hasher.Update("include ");
          hasher.Update(child.path);
          hasher.Update("\n");
        } else {
          hasher.Update("validator\n");
        }
        hasher.Update(child.digest.ToHex());
        hasher.Update("\n");
      }
      if (!n.has_validator) {
        hasher.Update("no-validator\n");
      }
      return hasher.Finish();
    });
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
  return hasher.Digest(path, /*is_schema=*/false);
}

}  // namespace configerator
