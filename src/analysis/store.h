// AnalysisStore: each analysis product, computed once per input version.
//
// Sandcastle analyzes the same entry versions again and again: semdiff's
// two sides and its closure walk, the reverse-closure re-analysis, the
// invariant checker and the post-land dependency refresh each read an
// entry's abstract interpretation, and the old side of one proposal is the
// new side of the last. The store keeps one long-lived copy of each product.
// It owns the CompiledUnitCache whose parses and interned sources it reads
// (units()), so one store is all a pipeline holds: its compiles share that
// cache too.
//
//   abstract interpretation  an entry's AbsintResult, with the ReadTrace of
//                            its run: the entry's bytes, then every module,
//                            schema, `include` and "-cvalidator" probe the
//                            analysis read. CSL is hermetic, so equal reads
//                            analyze identically.
//   symbol surface           a file's ModuleSymbolSurface, keyed by its bytes:
//                            the one pre-scan of a module that lint,
//                            symbol diffing and import composition read.
//   invariant registry       the parsed "invariants/" specs, with the trace
//                            of reading every spec file.
//
// A stored result replays while its trace holds: while every read it
// recorded returns the same bytes, or the same error, through the reader at
// hand. When the content handed in is not what the reader serves for the
// path, the analysis runs afresh and nothing is kept. Results are shared and
// immutable. Each memo keeps at most two versions per path (or, for the
// registry, two spec sets), the most recently used ones: normally head and
// the latest proposal.
//
// What an import binds (Import) is composed on each call from the stored
// surfaces of the modules it reaches; only the surfaces are kept.
//
// Every analysis runs through a store. An analysis object built without one
// (ConfigLint, SemanticDiffer, InvariantChecker) owns a store for its
// lifetime. Not thread-safe.

#ifndef SRC_ANALYSIS_STORE_H_
#define SRC_ANALYSIS_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/absint.h"
#include "src/lang/unit_cache.h"

namespace configerator {

// What one `import_python(path, filter)` binds: for "*", the module's own
// bindings plus, recursively, whatever each of its module imports binds
// (the interpreter copies every global of the imported module, imported
// ones included); for a named filter, that one name when the module binds
// it. A module-level named import inside the composition binds its filter
// even when the target lacks it.
struct ImportBinding {
  struct Name {
    // The module whose definition the import copies: a re-exported name
    // keeps the module that defines it.
    std::string module;
    // Set when the name's last binding that carries a signature is a `def`:
    // the signature and the module that defines it.
    std::optional<FunctionSignature> function;
    std::string function_module;
  };
  std::map<std::string, Name> names;
  // Some module on the way was more than kMaxImportDepth imports deep, in
  // an import cycle, unreadable, unparseable or imported a computed path;
  // `names` is then what could be composed.
  bool unresolved = false;
  bool has_schema_import = false;  // Some module on the way loads a schema.
  bool missing = false;  // The imported module itself reads kNotFound.
};

struct InvariantRegistry;

class AnalysisStore {
 public:
  // Imports nested deeper than this (the linted or diffed file's own
  // imports are depth 1) leave an ImportBinding unresolved.
  static constexpr int kMaxImportDepth = 8;

  // The parses and interned sources the store reads, shared with every
  // compile made through it.
  CompiledUnitCache& units() { return units_; }

  // `path`'s abstract interpretation, `content` being its source as read
  // through `reader`.
  std::shared_ptr<const AbsintResult> Absint(const FileReader& reader,
                                             const std::string& path,
                                             const std::string& content);

  // The symbol surface of `path` at `content` (ComputeSymbolSurface over
  // the unit cache's parse).
  std::shared_ptr<const ModuleSymbolSurface> Surface(
      const std::string& path, const std::string& content);

  // What `import_python(path, filter)` binds, each module on the way read
  // through `reader` and pre-scanned by Surface().
  ImportBinding Import(const FileReader& reader, const std::string& path,
                       const std::string& filter);

  // InvariantRegistry::Load(reader, spec_files).
  std::shared_ptr<const InvariantRegistry> Registry(
      const FileReader& reader, const std::vector<std::string>& spec_files);

  // Abstract interpretations served from the store, and run afresh.
  size_t absint_hits() const { return absint_hits_; }
  size_t absint_misses() const { return absint_misses_; }
  // Times the invariant registry was parsed.
  size_t registry_parses() const { return registry_parses_; }
  // Stored abstract interpretations of `path` (at most two).
  size_t absints_for(const std::string& path) const;

 private:
  struct StoredAbsint {
    ReadTrace trace;
    std::shared_ptr<const AbsintResult> result;
  };
  struct StoredSurface {
    std::shared_ptr<const std::string> source;  // The unit cache's copy.
    std::shared_ptr<const ModuleSymbolSurface> surface;
  };
  struct StoredRegistry {
    std::vector<std::string> spec_files;
    ReadTrace trace;
    std::shared_ptr<const InvariantRegistry> registry;
  };

  CompiledUnitCache units_;
  std::map<std::string, RecentVersions<StoredAbsint>> absints_;
  std::map<std::string, RecentVersions<StoredSurface>> surfaces_;
  RecentVersions<StoredRegistry> registries_;
  size_t absint_hits_ = 0;
  size_t absint_misses_ = 0;
  size_t registry_parses_ = 0;
};

}  // namespace configerator

#endif  // SRC_ANALYSIS_STORE_H_
