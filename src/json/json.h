// JSON value model, parser, and serializer.
//
// Compiled configs in this stack — like in the paper — are JSON documents
// generated by the config compiler and stored in version control. Object keys
// are kept in sorted order (std::map) so serialization is deterministic:
// recompiling an unchanged source produces a byte-identical config, which is
// what makes VCS diffs and content-addressed hashing meaningful.

#ifndef SRC_JSON_JSON_H_
#define SRC_JSON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace configerator {

// A JSON document node. Value semantics; copyable and comparable.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  // Constructors for each kind.
  Json() : kind_(Kind::kNull) {}
  Json(std::nullptr_t) : kind_(Kind::kNull) {}                    // NOLINT
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                  // NOLINT
  Json(int i) : kind_(Kind::kInt), int_(i) {}                     // NOLINT
  Json(int64_t i) : kind_(Kind::kInt), int_(i) {}                 // NOLINT
  Json(uint32_t i) : kind_(Kind::kInt), int_(i) {}                // NOLINT
  Json(double d) : kind_(Kind::kDouble), double_(d) {}            // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  Json(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}    // NOLINT
  Json(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors. Precondition: matching kind (asserted in debug builds).
  bool as_bool() const;
  int64_t as_int() const;
  // as_double() also accepts kInt and widens.
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // Object field access. Get returns nullptr if missing or not an object.
  const Json* Get(std::string_view key) const;
  // Insert-or-assign on an object node.
  void Set(std::string key, Json value);
  bool Has(std::string_view key) const { return Get(key) != nullptr; }

  // Array append.
  void Append(Json value);

  size_t size() const;

  // Compact single-line serialization (canonical form used for hashing).
  std::string Dump() const;
  // Pretty-printed with 2-space indentation (the on-disk config format).
  std::string DumpPretty() const;

  // Parses a JSON document; rejects trailing garbage and arrays/objects
  // nested deeper than kMaxParseDepth, so hostile input cannot exhaust the
  // stack of the parser or of any later recursive walk.
  static constexpr int kMaxParseDepth = 512;
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

// Appends a JSON-escaped rendering of `s` (with surrounding quotes) to `out`.
void JsonEscape(std::string_view s, std::string* out);

}  // namespace configerator

#endif  // SRC_JSON_JSON_H_
