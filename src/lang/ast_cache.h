// A memoizing front-end for ParseCsl. Sandcastle runs two analysis passes
// (ConfigLint and the abstract interpreter) over every file in a diff's
// reverse closure, and each pass used to re-parse both the file itself and
// every module it imports — the same shared .cinc could be parsed dozens of
// times per proposal. Parsed modules are immutable after ParseCsl (the
// interpreter, linter and abstract interpreter all hold const views), so one
// cache can hand the same shared_ptr<Module> to every pass.
//
// Scope one cache per analysis run (e.g. per Sandcastle::RunTests call):
// entries are keyed by path and invalidated when the content changes, and
// the cache is NOT thread-safe.

#ifndef SRC_LANG_AST_CACHE_H_
#define SRC_LANG_AST_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace configerator {

class AstCache {
 public:
  // Parses (path, content), reusing the previous parse when the content is
  // byte-identical. Non-fatal parse findings (duplicate dict keys) are
  // replayed into `lint_diags` on hits, so cached and fresh parses are
  // indistinguishable to callers. Failed parses are cached too.
  Result<std::shared_ptr<Module>> GetOrParse(
      const std::string& path, const std::string& content,
      std::vector<LintDiagnostic>* lint_diags = nullptr);

  // Same, for a caller that keeps its own shared copy of the source (the
  // compiler's CompiledUnitCache): the entry holds that copy instead of
  // making another, and recognizes it by pointer before comparing bytes.
  Result<std::shared_ptr<Module>> GetOrParse(
      const std::string& path, std::shared_ptr<const std::string> content,
      std::vector<LintDiagnostic>* lint_diags = nullptr);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  Result<std::shared_ptr<Module>> Lookup(
      const std::string& path, const std::string& content,
      std::shared_ptr<const std::string> shared,
      std::vector<LintDiagnostic>* lint_diags);

  struct Entry {
    std::shared_ptr<const std::string> content;
    std::shared_ptr<Module> module;  // Null when the parse failed.
    Status error = OkStatus();
    std::vector<LintDiagnostic> parse_diags;
  };

  std::map<std::string, Entry> entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace configerator

#endif  // SRC_LANG_AST_CACHE_H_
