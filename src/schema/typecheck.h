// Type checking of JSON config values against Thrift-subset schemas, and
// default-value materialization. This is the first of the paper's layered
// defenses against configuration errors: a config that does not conform to
// its declared schema never leaves the compiler.

#ifndef SRC_SCHEMA_TYPECHECK_H_
#define SRC_SCHEMA_TYPECHECK_H_

#include <string>

#include "src/json/json.h"
#include "src/schema/schema.h"
#include "src/util/status.h"

namespace configerator {

// Checks `value` against struct `struct_name`. Rejects: missing required
// fields, type mismatches, out-of-range integers, unknown fields (typo
// defense), and enum values outside the declared set. `path` prefixes error
// messages ("job.resources.cpu: ...").
Status TypeCheckStruct(const SchemaRegistry& registry, std::string_view struct_name,
                       const Json& value, const std::string& path = "");

// Checks `value` against an arbitrary type.
Status TypeCheckValue(const SchemaRegistry& registry, const Type& type,
                      const Json& value, const std::string& path);

// Returns a copy of `value` with declared defaults filled in for absent
// optional fields (recursively for nested structs). The compiler runs this
// before export so consumers always see fully-populated configs.
Result<Json> ApplyDefaults(const SchemaRegistry& registry,
                           std::string_view struct_name, const Json& value);

// Builds a zero/default instance of a struct: declared defaults where given,
// natural zero values for remaining optionals. Useful for UI-created configs.
// A struct that contains itself stops there: a field of a struct already
// being built is left unset (TypeCheckStruct rejects the instance if that
// field is required).
Result<Json> DefaultInstance(const SchemaRegistry& registry,
                             std::string_view struct_name);

}  // namespace configerator

#endif  // SRC_SCHEMA_TYPECHECK_H_
