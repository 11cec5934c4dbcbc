// Content-keyed cache for parsed CSL modules and whole-entry compile
// outputs.
//
// Parsing is purely syntactic, so a parsed Module is a function of its
// source bytes alone: modules are keyed by path and by byte comparison
// against the kept versions of that path. Compile sessions, ConfigLint, the
// abstract interpreter and the symbol surfaces all parse through one cache,
// so a Sandcastle parses each source version once; shared .cinc modules
// parse once per content version instead of once per session. Failed
// parses are cached too.
//
// A whole compile is memoized by what it read. The session reads every
// file through a ReadTrace's recording reader: each path once, with the
// bytes it returned or the status it failed with, absent "-cvalidator"
// companions included. CSL is hermetic (no filesystem, clock or randomness
// outside the session's reader), so a run whose every read would return the
// same thing produces the same output, or the same error. FindOutput
// replays a stored result while its trace holds under the current reader;
// a trace check re-reads and byte-compares each file the run read, and
// evaluates nothing. The trace is the compile's own record of its inputs,
// so an import computed at run time, or one inside a function nothing
// calls, is read (or not) exactly as the evaluation reads it. The same
// trace gives CompileOutput::dependencies, and AnalysisStore memoizes
// abstract interpretations by the reads of theirs.
//
// Every memo here keeps at most two versions per path, the two most
// recently used (RecentVersions): normally head and the latest proposal, so
// a pass that alternates between the two trees hits on both, and a
// long-lived cache never grows one entry per commit. A path's parse and
// the traces that read it share the version's interned copy of its source.
//
// Not thread-safe. One cache can live as long as the pipeline that owns it
// (Sandcastle keeps one for its lifetime).

#ifndef SRC_LANG_UNIT_CACHE_H_
#define SRC_LANG_UNIT_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/compiler.h"
#include "src/util/status.h"

namespace configerator {

class CompiledUnitCache;

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

// Every read one run made: each path once, in first-read order, with the
// bytes the read returned or the status it failed with.
class ReadTrace {
 public:
  // A reader that reads through `reader` and records the first read of each
  // path, interning its bytes in `cache`. A path read again gets the
  // recorded result, so the run is a function of its trace. The trace must
  // stay in place, and `cache` live, while the returned reader is in use.
  FileReader Recorder(FileReader reader, CompiledUnitCache* cache);

  // True when every recorded read returns equal bytes, or an equal status
  // (code and message), through `reader`. Reads in order and stops at the
  // first mismatch.
  bool Holds(const FileReader& reader) const;

  // The recorded paths, in first-read order.
  std::vector<std::string> Paths() const;

 private:
  struct Read {
    std::string path;
    std::shared_ptr<const std::string> content;  // The cache's interned copy;
                                                 // null when the read failed.
    Status status = OkStatus();
  };
  std::vector<Read> reads_;
};

class CompiledUnitCache {
 public:
  // A memoized whole-entry result: either a successful output or the
  // deterministic error the entry's evaluation produced.
  struct MemoizedOutput {
    Status status = OkStatus();
    CompileOutput output;  // Meaningful only when status.ok().
  };

  // One version of one path's source: its bytes and, once something asked
  // for it, the parse.
  struct Unit {
    std::shared_ptr<const std::string> content;
    bool parsed = false;
    std::shared_ptr<Module> module;  // Null when the parse failed.
    Status parse_error = OkStatus();
    std::vector<LintDiagnostic> parse_diags;
  };

  // The cache's version of `path` whose bytes equal `content`, added when
  // neither kept version matches.
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

  // The whole-entry memo, at most two results per entry. FindOutput returns
  // the most recently used result whose trace holds under `reader`, and
  // counts an output hit or miss; the pointer is owned by the cache and
  // stays valid until that version is evicted. StoreOutput follows a
  // FindOutput that missed.
  const MemoizedOutput* FindOutput(const std::string& entry,
                                   const FileReader& reader);
  void StoreOutput(const std::string& entry, ReadTrace trace,
                   MemoizedOutput result);
  // Memoized outputs kept for `entry` (at most two).
  size_t outputs_for(const std::string& entry) const;

  // Parse-cache hits and misses.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t output_hits() const { return output_hits_; }
  size_t output_misses() const { return output_misses_; }

 private:
  Unit& Version(const std::string& path, const std::string& content);

  struct StoredOutput {
    ReadTrace trace;
    MemoizedOutput result;
  };

  std::map<std::string, RecentVersions<Unit>> units_;
  std::map<std::string, RecentVersions<StoredOutput>> outputs_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t output_hits_ = 0;
  size_t output_misses_ = 0;
};

}  // namespace configerator

#endif  // SRC_LANG_UNIT_CACHE_H_
