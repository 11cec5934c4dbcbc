// The Configerator compiler: turns config source code into validated JSON
// configs (paper §3.1).
//
// Given an entry file (a ".cconf"), the compiler:
//   1. evaluates it (and transitively everything it import_python()s),
//   2. loads every import_thrift()ed schema into a SchemaRegistry,
//   3. collects export_if_last()/export() values,
//   4. type-checks each schema-typed export, materializes defaults,
//   5. runs the schema's validators (functions `validate_<Struct>` defined in
//      "<schema>.thrift-cvalidator" files),
// and returns the generated JSON configs plus the full dependency list the
// Dependency Service uses for recompile-on-change.

#ifndef SRC_LANG_COMPILER_H_
#define SRC_LANG_COMPILER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/lang/interp.h"
#include "src/schema/schema.h"
#include "src/util/status.h"

namespace configerator {

class CompiledUnitCache;
class MetricsRegistry;

// Reads source files by path. Backed by an in-memory map in tests and by the
// VCS working tree in the pipeline.
using FileReader = std::function<Result<std::string>(const std::string&)>;

// Caching and observability knobs for the compiler.
struct CompilerOptions {
  // Parse cache and output memo shared across Compile() calls (e.g. one per
  // Sandcastle run). Null = the compiler keeps a private cache, which still
  // dedups re-parses of shared .cinc modules across entries. Hermeticity is
  // preserved either way: sources are re-read every call and re-keyed by
  // content, so edits always take effect.
  CompiledUnitCache* unit_cache = nullptr;
  // Optional observability sink: csl.unit_cache.{hits,misses} and
  // csl.output_cache.{hits,misses} counters and csl.{compile,execute}_micros
  // histograms.
  MetricsRegistry* metrics = nullptr;
};

// One generated config.
struct CompiledConfig {
  std::string path;       // Output path, e.g. "feed/cache_job.json".
  std::string type_name;  // Schema struct name; empty for untyped exports.
  Json content;
};

// Result of compiling one entry file.
struct CompileOutput {
  std::vector<CompiledConfig> configs;
  // Every path the compile read, in first-read order: the entry, the
  // modules it imports, schema files and their includes, and each schema's
  // "-cvalidator" companion, whether or not it exists — the edges of the
  // dependency graph.
  std::vector<std::string> dependencies;
};

class ConfigCompiler {
 public:
  explicit ConfigCompiler(FileReader reader);
  ConfigCompiler(FileReader reader, CompilerOptions options);
  ~ConfigCompiler();

  // Compiles one ".cconf" entry file. Each call is hermetic: schemas and
  // modules are re-read so source changes always take effect. The output
  // (or the deterministic error) is memoized with the reads the evaluation
  // made, and replays without evaluating while every one of those reads
  // returns the same (CSL is hermetic, so equal reads compile to
  // byte-identical artifacts).
  Result<CompileOutput> Compile(const std::string& entry_path);

  // Derives the default output path for a source path:
  // "feed/cache_job.cconf" -> "feed/cache_job.json".
  static std::string OutputPathFor(const std::string& source_path);

 private:
  class Session;

  FileReader reader_;
  CompilerOptions options_;
  // Backing cache when the caller didn't provide one.
  std::unique_ptr<CompiledUnitCache> owned_unit_cache_;
};

// Convenience FileReader over an in-memory map.
class InMemorySources {
 public:
  void Put(std::string path, std::string content) {
    files_[std::move(path)] = std::move(content);
  }
  bool Contains(const std::string& path) const { return files_.count(path) > 0; }

  FileReader AsReader() const {
    return [this](const std::string& path) -> Result<std::string> {
      auto it = files_.find(path);
      if (it == files_.end()) {
        return NotFoundError("no such source file: " + path);
      }
      return it->second;
    };
  }

 private:
  std::map<std::string, std::string> files_;
};

}  // namespace configerator

#endif  // SRC_LANG_COMPILER_H_
