// Schema definitions (structs, enums) parsed from Thrift-subset IDL text,
// plus the registry that resolves named types across files.
//
// Grammar (subset of Apache Thrift):
//
//   include "path/to/other.thrift"
//   enum Name { A = 0, B = 1, }
//   struct Name {
//     1: required string field;
//     2: optional i32 other = 42;   // default value
//     3: optional list<string> tags;
//     4: optional map<string, i64> limits;
//     5: optional OtherStruct nested;
//   }
//
// Comments: // and # to end of line, /* ... */.
//
// An include cycle, a chain deeper than kMaxIncludeDepth, and type or
// default nesting deeper than kMaxIdlNestingDepth are errors, so hostile IDL
// parses with bounded stack.

#ifndef SRC_SCHEMA_SCHEMA_H_
#define SRC_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/schema/types.h"
#include "src/util/status.h"

namespace configerator {

inline constexpr int kMaxIncludeDepth = 64;      // Files on one chain.
inline constexpr int kMaxIdlNestingDepth = 256;  // As kMaxCslAstDepth.

using SchemaReader = std::function<Result<std::string>(const std::string&)>;

// One field of a struct.
struct FieldDef {
  int32_t id = 0;          // Thrift field id.
  std::string name;
  Type type = Type::String();
  bool required = false;
  std::optional<Json> default_value;  // Literal default, already JSON-typed.
};

struct StructDef {
  std::string name;
  std::vector<FieldDef> fields;

  const FieldDef* FindField(std::string_view field_name) const;
};

struct EnumDef {
  std::string name;
  // Ordered (name, value) pairs.
  std::vector<std::pair<std::string, int64_t>> values;

  bool HasValue(int64_t v) const;
  std::optional<int64_t> ValueOf(std::string_view value_name) const;
  std::optional<std::string> NameOf(int64_t v) const;
};

// Holds all structs/enums known to the config compiler. Thread-compatible.
class SchemaRegistry {
 public:
  // The one way to read IDL: reads schema `path` through `reader` and
  // registers its definitions, loading each include where it appears (so
  // its enums classify the rest of the file). A path loaded before is not
  // read again; the call returns that load's outcome. A cycle or a chain
  // deeper than kMaxIncludeDepth is kInvalidConfig, naming the chain.
  Status Load(const std::string& path, const SchemaReader& reader);

  Status RegisterStruct(StructDef def);
  Status RegisterEnum(EnumDef def);

  const StructDef* FindStruct(std::string_view name) const;
  const EnumDef* FindEnum(std::string_view name) const;

  // Verifies every struct/enum reference inside registered definitions
  // resolves. Call after all files are loaded.
  Status ResolveAll() const;

  std::vector<std::string> StructNames() const;
  std::vector<std::string> EnumNames() const;

 private:
  // Loads `path` as the next link of `chain`, the files being loaded.
  Status LoadFile(const std::string& path, const SchemaReader& reader,
                  std::vector<std::string>* chain);

  std::map<std::string, StructDef, std::less<>> structs_;
  std::map<std::string, EnumDef, std::less<>> enums_;
  std::map<std::string, Status, std::less<>> files_;  // Each load's outcome.
};

}  // namespace configerator

#endif  // SRC_SCHEMA_SCHEMA_H_
