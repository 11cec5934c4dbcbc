// Internal interface between the ConfigLint driver and its rule families.
// Not installed as public API; tests go through ConfigLint.

#ifndef SRC_ANALYSIS_RULES_H_
#define SRC_ANALYSIS_RULES_H_

#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/analysis/store.h"
#include "src/lang/ast.h"
#include "src/lang/compiler.h"

namespace configerator {
namespace analysis {

// Language rules (L001..L010) over a parsed module and its symbol surface.
// `reader` resolves import_python / import_thrift targets; may be null.
// Imported modules are composed through `store` (AnalysisStore::Import).
void RunLanguageRules(const Module& module, const ModuleSymbolSurface& surface,
                      const FileReader& reader,
                      std::vector<LintDiagnostic>* diags,
                      AnalysisStore& store);

// Gating rules (G001..G006) over a parsed Gatekeeper project JSON, against
// the builtin restraint table.
void RunGatingRules(const std::string& path, const Json& config,
                    std::vector<LintDiagnostic>* diags);

}  // namespace analysis
}  // namespace configerator

#endif  // SRC_ANALYSIS_RULES_H_
