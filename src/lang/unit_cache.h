// Content-keyed cache for parsed CSL modules and whole-entry compile
// outputs.
//
// Parsing is purely syntactic, so a parsed Module is a function of its
// source bytes alone: modules are keyed by path and invalidated when the
// content changes (detected by byte comparison against the previously seen
// source; the SHA-256 — the same digest the VCS substrate uses as the blob
// object id — is recomputed only then). The parse cache is an AstCache, so
// compile sessions and the analysis passes share one definition of a cache
// hit. One cache can back many compile sessions (e.g. every entry a
// Sandcastle run recompiles); shared .cinc modules parse once per content
// version instead of once per session. Failed parses are cached too.
//
// ClosureDigest() extends the per-file key to the whole import closure: a
// digest over the module's source hash plus, recursively, every statically
// known import edge (CSL modules, Thrift schemas with their `include`s and
// "-cvalidator" companions), found by walking the parsed module. Two entry
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
// The cache keeps one copy of each path's source. Its parse entry and
// digest node share that copy and recognize it by pointer.
//
// Not thread-safe; scope one cache per run, like AstCache.

#ifndef SRC_LANG_UNIT_CACHE_H_
#define SRC_LANG_UNIT_CACHE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast_cache.h"
#include "src/lang/compiler.h"
#include "src/util/sha256.h"
#include "src/util/status.h"

namespace configerator {

class CompiledUnitCache {
 public:
  // A memoized whole-entry result: either a successful output or the
  // deterministic error the entry's evaluation produced.
  struct MemoizedOutput {
    Status status = OkStatus();
    CompileOutput output;  // Meaningful only when status.ok().
  };

  // One path's source as last seen, with its SHA-256.
  struct Source {
    std::shared_ptr<const std::string> content;
    Sha256Digest hash;
  };

  // The cache's copy of `path`'s source: the stored one when `content` is
  // byte-identical to it, else a fresh copy (hashed once) that replaces it.
  const Source& Intern(const std::string& path, const std::string& content);

  // Parses (path, content), reusing the previous Module when the content is
  // byte-identical. Modules are immutable and shared: callers that evaluate
  // one must keep the shared_ptr alive as long as any value produced from
  // it (closures point into the module's function definitions).
  Result<std::shared_ptr<Module>> GetOrParse(const std::string& path,
                                             const std::string& content);

  // The whole-entry memo, keyed by ClosureDigest(). FindOutput counts an
  // output hit or miss; the returned pointer is owned by the cache and
  // invalidated by the next StoreOutput. StoreOutput overwrites.
  const MemoizedOutput* FindOutput(const Sha256Digest& closure_digest);
  void StoreOutput(const Sha256Digest& closure_digest, MemoizedOutput result);

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
  std::map<std::string, DigestNode>& digest_nodes() { return digest_nodes_; }

  // Parse-cache hits and misses.
  size_t hits() const { return parses_.hits(); }
  size_t misses() const { return parses_.misses(); }
  size_t output_hits() const { return output_hits_; }
  size_t output_misses() const { return output_misses_; }

 private:
  std::map<std::string, Source> sources_;
  AstCache parses_;
  std::map<Sha256Digest, MemoizedOutput> outputs_;
  std::map<std::string, DigestNode> digest_nodes_;
  size_t output_hits_ = 0;
  size_t output_misses_ = 0;
};

// Reads source files by path (same contract as the compiler's FileReader).
using SourceReader = std::function<Result<std::string>(const std::string&)>;

// Digest of `path`'s whole static import closure: its own source hash plus,
// recursively, the digest of every module it imports, every schema it loads
// (including the schema's `include "..."` files and its "-cvalidator"
// companion module, when present). Cycles contribute a marker instead of
// recursing. Fails if any module in the closure fails to parse or has a
// computed import path or filter — such a closure is only knowable by
// evaluating.
Result<Sha256Digest> ClosureDigest(const std::string& path,
                                   const SourceReader& reader,
                                   CompiledUnitCache* cache);

}  // namespace configerator

#endif  // SRC_LANG_UNIT_CACHE_H_
