// Native builtin functions for the config source language, and registration
// of schema-struct constructors / enum namespaces from a SchemaRegistry.

#ifndef SRC_LANG_BUILTINS_H_
#define SRC_LANG_BUILTINS_H_

#include "src/lang/interp.h"
#include "src/schema/schema.h"

namespace configerator {

// Installs the builtin functions. SharedBuiltinsEnvironment()->vars() is the
// one list of their names: ConfigLint and the abstract interpreter read it,
// so a function added here is known to both.
void RegisterCslBuiltins(Environment* env);

// Process-wide environment holding exactly the RegisterCslBuiltins bindings,
// built once and shared read-only by every interpreter session as the root
// of its scope chain. Safe to share because every binding is an immutable
// native function and name assignment always defines in the innermost scope
// — user code can shadow a builtin in its own session but never write
// through to this environment.
const std::shared_ptr<Environment>& SharedBuiltinsEnvironment();

// For every struct in `registry`, installs a constructor `StructName(...)`
// that accepts keyword arguments (rejecting unknown field names — the typo
// defense starts at construction), and for every enum a namespace value
// `EnumName.VALUE`, a dict built in the session's `arena`.
Status RegisterSchemaConstructors(const SchemaRegistry& registry,
                                  Environment* env, ValueArena& arena);

}  // namespace configerator

#endif  // SRC_LANG_BUILTINS_H_
