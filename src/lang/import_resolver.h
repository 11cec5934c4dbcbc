// Shared classification of CSL import calls. The interpreter (build), the
// linter (L001/L004) and the abstract interpreter (T-rules, symbol slices)
// must all agree on what an `import_python()` / `import_thrift()` call
// targets — a divergence means lint diagnostics that contradict build
// behavior. This helper is the single source of truth for:
//   * which calls are imports at all,
//   * module-vs-schema dispatch (`import_thrift`, or a ".thrift" path given
//     to `import_python`, loads schemas; everything else loads a module),
//   * the filter argument ("*" = star import, otherwise one symbol),
//   * when a target is statically unresolvable (non-literal path/filter).

#ifndef SRC_LANG_IMPORT_RESOLVER_H_
#define SRC_LANG_IMPORT_RESOLVER_H_

#include <string>

#include "src/lang/ast.h"

namespace configerator {

struct ImportTarget {
  enum class Kind {
    kModule,   // import_python of a CSL module: path + filter are literal.
    kSchema,   // import_thrift (or a ".thrift" path): loads schema structs.
    kDynamic,  // Path or filter is a computed expression; only the
               // interpreter, which evaluates it, can resolve this.
  };

  Kind kind = Kind::kDynamic;
  std::string path;          // Literal path (kModule / kSchema).
  std::string filter = "*";  // "*" or one symbol name (kModule only).
  int line = 0;
};

// True if `expr` is a call to import_python or import_thrift.
bool IsImportCall(const Expr& expr);

// Does a path given to an import resolve to a schema file? Shared by the
// interpreter (which sees evaluated paths) and the static analyzers.
bool IsSchemaImportPath(const std::string& callee_name, const std::string& path);

// Statically classifies an import call. Precondition: IsImportCall(call).
ImportTarget ClassifyImport(const Expr& call);

}  // namespace configerator

#endif  // SRC_LANG_IMPORT_RESOLVER_H_
