// Content-keyed cache for parsed CSL modules and whole-entry compile
// outputs.
//
// Parsing is purely syntactic, so a parsed Module is a function of its
// source bytes alone: modules are keyed by path and by byte comparison
// against the kept versions of that path (the SHA-256 — the same digest the
// VCS substrate uses as the blob object id — is computed once per new
// version). Compile sessions, ConfigLint, the abstract interpreter and the
// symbol surfaces all parse through one cache, so a Sandcastle parses each
// source version once; shared .cinc modules parse once per content version
// instead of once per session. Failed parses are cached too.
//
// ClosureDigest() extends the per-file key to the whole import closure: a
// digest over the module's source hash plus, recursively, every statically
// known import edge (CSL modules, Thrift schemas with their `include`s and
// "-cvalidator" companions), found by walking the parsed module and by
// loading each schema through SchemaRegistry::Load, so a schema's edges are
// the includes the IDL parser itself follows. Two entry
// files with equal closure digests compile to byte-identical artifacts —
// CSL is hermetic (no filesystem, clock, or randomness; every read goes
// through the session's reader and appears in the closure) — which is what
// lets incremental pipelines skip recompiles when nothing in the closure
// changed.
//
// FindOutput/StoreOutput realize that skip: the compiler memoizes each
// entry's full validated CompileOutput (or its deterministic failure) under
// its closure digest, so steady-state recompiles of an unchanged entry cost
// one digest walk instead of an evaluation. Entries whose closure is not
// statically digestible (computed import paths) are never memoized. The
// walk itself memoizes per-node subtree digests (DigestNode): when every
// source in a subtree byte-matches the previous walk, the stored digest is
// returned without recomputing any SHA-256 — steady state reads and
// compares bytes, nothing more.
//
// Every memo here keeps at most two versions per path, the two most recently
// used (RecentVersions): normally head and the latest proposal, so a pass
// that alternates between the two trees hits on both, and a long-lived
// cache never grows one entry per commit. A path's parse and digest nodes
// share the version's interned copy of its source and recognize it by
// pointer.
//
// Not thread-safe. One cache can live as long as the pipeline that owns it
// (Sandcastle keeps one for its lifetime).

#ifndef SRC_LANG_UNIT_CACHE_H_
#define SRC_LANG_UNIT_CACHE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/compiler.h"
#include "src/util/sha256.h"
#include "src/util/status.h"

namespace configerator {

// The two most recently used versions of one path's artifact. Adding a
// third evicts the least recently used. Versions never move in memory, so a
// reference stays valid until that version is evicted.
template <typename T>
class RecentVersions {
 public:
  // The most recent version `match` accepts, made the most recent; null if
  // none does.
  template <typename Match>
  T* Find(const Match& match) {
    for (size_t i = 0; i < versions_.size(); ++i) {
      if (match(*versions_[i])) {
        std::swap(versions_[0], versions_[i]);
        return versions_[0].get();
      }
    }
    return nullptr;
  }

  T& Add(T value) {
    if (versions_.size() == kMaxVersions) {
      versions_.pop_back();
    }
    versions_.insert(versions_.begin(),
                     std::make_unique<T>(std::move(value)));
    return *versions_.front();
  }

  size_t size() const { return versions_.size(); }

 private:
  static constexpr size_t kMaxVersions = 2;
  std::vector<std::unique_ptr<T>> versions_;
};

class CompiledUnitCache {
 public:
  // A memoized whole-entry result: either a successful output or the
  // deterministic error the entry's evaluation produced.
  struct MemoizedOutput {
    Status status = OkStatus();
    CompileOutput output;  // Meaningful only when status.ok().
  };

  // One version of one path's source: its bytes, their SHA-256, and, once
  // something asked for it, the parse.
  struct Unit {
    std::shared_ptr<const std::string> content;
    Sha256Digest hash;
    bool parsed = false;
    std::shared_ptr<Module> module;  // Null when the parse failed.
    Status parse_error = OkStatus();
    std::vector<LintDiagnostic> parse_diags;
  };

  // The cache's version of `path` whose bytes equal `content`, added (and
  // hashed once) when neither kept version matches.
  const Unit& Intern(const std::string& path, const std::string& content);

  // Parses (path, content), reusing the version's Module when one was
  // parsed before. Modules are immutable and shared: callers that evaluate
  // one must keep the shared_ptr alive as long as any value produced from
  // it (closures point into the module's function definitions). Non-fatal
  // parse findings (duplicate dict keys) are appended to `lint_diags` on
  // hits and misses alike. Failed parses are cached too.
  Result<std::shared_ptr<Module>> GetOrParse(
      const std::string& path, const std::string& content,
      std::vector<LintDiagnostic>* lint_diags = nullptr);

  // The whole-entry memo, keyed by the entry's ClosureDigest() and bounded
  // to two digests per entry. FindOutput counts an output hit or miss; the
  // returned pointer is owned by the cache and stays valid until that
  // version is evicted. StoreOutput follows a FindOutput that missed.
  const MemoizedOutput* FindOutput(const std::string& entry,
                                   const Sha256Digest& closure_digest);
  void StoreOutput(const std::string& entry,
                   const Sha256Digest& closure_digest, MemoizedOutput result);
  // Memoized outputs kept for `entry` (at most two).
  size_t outputs_for(const std::string& entry) const;

  // One memoized node of the closure-digest tree, internal to
  // ClosureDigest(). Holds the exact source and child digests that produced
  // `digest`, so a steady-state walk re-reads and byte-compares every file
  // in the closure but hashes nothing.
  struct DigestNode {
    struct Child {
      std::string path;
      bool is_schema = false;
      Sha256Digest digest;
    };
    std::shared_ptr<const std::string> source;  // The interned copy.
    bool has_validator = false;  // Schema nodes: companion file existed.
    std::vector<Child> children;
    Sha256Digest digest;
  };

  // Per-node digest memo, keyed by kind-prefixed path ("m:" module,
  // "s:" schema). Internal to ClosureDigest().
  std::map<std::string, RecentVersions<DigestNode>>& digest_nodes() {
    return digest_nodes_;
  }

  // Parse-cache hits and misses.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t output_hits() const { return output_hits_; }
  size_t output_misses() const { return output_misses_; }

 private:
  Unit& Version(const std::string& path, const std::string& content);

  struct StoredOutput {
    Sha256Digest digest;
    MemoizedOutput result;
  };

  std::map<std::string, RecentVersions<Unit>> units_;
  std::map<std::string, RecentVersions<StoredOutput>> outputs_;
  std::map<std::string, RecentVersions<DigestNode>> digest_nodes_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t output_hits_ = 0;
  size_t output_misses_ = 0;
};

// Reads source files by path (same contract as the compiler's FileReader).
using SourceReader = std::function<Result<std::string>(const std::string&)>;

// Digest of `path`'s whole static import closure: its own source hash plus,
// recursively, the digest of every module it imports, every schema it loads
// (including the schema's `include "..."` files and its "-cvalidator"
// companion module, when present). Module cycles contribute a marker instead
// of recursing. Fails if any module in the closure fails to parse or has a
// computed import path or filter, or if any schema fails to load on its own
// (an include cycle among them) — such a closure is only knowable by
// evaluating.
Result<Sha256Digest> ClosureDigest(const std::string& path,
                                   const SourceReader& reader,
                                   CompiledUnitCache* cache);

}  // namespace configerator

#endif  // SRC_LANG_UNIT_CACHE_H_
