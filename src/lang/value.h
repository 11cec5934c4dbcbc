// Runtime value model for the config source language (CSL).
//
// The paper's config sources are "Python files manipulating Thrift objects".
// CSL reproduces that shape: values are null/bool/int/double/string, lists,
// dicts, schema-typed objects (a dict tagged with its Thrift struct name),
// and functions. Lists, dicts and closures are cells owned by the
// interpreter session's ValueArena, and a Value holds a plain pointer to its
// cell, so `job.limits["x"] = 1` mutates the object, as in Python. Strings
// and native functions are immutable and reference-counted.

#ifndef SRC_LANG_VALUE_H_
#define SRC_LANG_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/util/status.h"

namespace configerator {

class Value;
class ValueArena;
class Environment;
struct FunctionDefStmt;  // AST node, defined in ast.h.

// Limits on what one interpreter session can build and walk. Each is a
// function of the program alone (no clocks, no memory readings): the
// compiler memoizes a failed compile with the reads it made, so the same
// program must fail the same way every time.
//
// Deepest value a walk (export, `==`, `in`, merge, str()) descends into.
inline constexpr int kMaxValueDepth = 128;
// Nodes one walk visits. Containers share substructure, so `x = [x, x]`
// repeated 28 times has 2^28 paths from a few lines of source.
inline constexpr size_t kMaxValueNodes = size_t{1} << 20;
// Longest string, and the most string bytes one walk copies or compares.
inline constexpr size_t kMaxStringBytes = size_t{64} << 20;
// Bytes of lists, dicts, closures and strings one session may build.
inline constexpr size_t kArenaBudgetBytes = size_t{1} << 30;

// A user-defined function plus the environment it closed over. `def` points
// into a parsed Module, which the compile session keeps alive. The closure
// owns its captured frame; a frame refers to cells without owning them, so
// no reference cycle can form.
struct Closure {
  const FunctionDefStmt* def = nullptr;
  std::shared_ptr<Environment> env;
};

// A native (C++-implemented) function. Receives the calling session's arena
// (for the containers and strings it builds), evaluated positional args and
// keyword args.
using NativeFn = std::function<Result<Value>(
    ValueArena& arena, std::vector<Value>& args,
    std::map<std::string, Value>& kwargs)>;

struct NativeFunction {
  std::string name;
  NativeFn fn;
};

// Counts one walk over a value graph against kMaxValueDepth,
// kMaxValueNodes and kMaxStringBytes. One walk may span several calls
// (`x in list` compares against every item under one count).
class ValueWalk {
 public:
  // Counts `v`, reached at `depth` (under a dict key of `key_bytes`);
  // fails once the walk is past a limit.
  Status Visit(const Value& v, int depth, size_t key_bytes = 0);

 private:
  size_t nodes_ = 0;
  size_t bytes_ = 0;
};

class Value {
 public:
  enum class Kind {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kList,
    kDict,
    kClosure,
    kNative,
  };

  using List = std::vector<Value>;
  using Dict = std::map<std::string, Value>;  // Sorted: deterministic exports.

  Value() = default;
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  // A string of any length, for literals and other strings the program
  // did not build; ValueArena::Str bounds and charges built ones.
  static Value Str(std::string s);
  static Value MakeNative(std::string name, NativeFn fn);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_list() const { return kind_ == Kind::kList; }
  bool is_dict() const { return kind_ == Kind::kDict; }
  bool is_callable() const {
    return kind_ == Kind::kClosure || kind_ == Kind::kNative;
  }

  bool as_bool() const { return bool_; }
  int64_t as_int() const { return int_; }
  double as_double() const { return is_int() ? static_cast<double>(int_) : double_; }
  const std::string& as_string() const {
    return *static_cast<const std::string*>(shared_.get());
  }
  List& as_list() const { return *list_; }
  Dict& as_dict() const { return dict_->items; }
  const Closure& as_closure() const { return *closure_; }
  const NativeFunction& as_native() const {
    return *static_cast<const NativeFunction*>(shared_.get());
  }

  // Schema type tag of a dict created by a struct constructor ("Job"),
  // kept on the dict's cell. Empty for plain dicts and other kinds.
  const std::string& type_name() const;
  void set_type_name(std::string name) { dict_->type_name = std::move(name); }

  // Python-style truthiness: None/False/0/""/[]/{} are false.
  bool Truthy() const;

  // Deep structural equality (functions compare by identity). Fails past
  // the walk limits; `walk` carries the count across several comparisons.
  Result<bool> Equals(const Value& other, ValueWalk* walk = nullptr) const;

  // "int", "list", ... for error messages.
  std::string_view KindName() const;

  // Debug/display rendering (repr-like). Truncates past the walk limits,
  // so it is safe on self-referential and shared containers.
  std::string ToDebugString() const;

  // Converts to JSON for export. Fails on functions and past the walk
  // limits (the language permits `d["self"] = d`).
  Result<Json> ToJson() const;

  // Builds a value from JSON (plain dicts/lists; no type tags) in `arena`.
  static Result<Value> FromJson(const Json& json, ValueArena& arena);

 private:
  friend class ValueArena;

  struct DictCell {
    Dict items;
    std::string type_name;
  };

  // The walks. Each counts this value, reached at `depth` under a dict key
  // of `key_bytes`, before descending.
  Result<bool> EqualsInternal(const Value& other, int depth, size_t key_bytes,
                              ValueWalk& walk) const;
  // Returns false once the walk is past a limit and the output truncated.
  bool AppendDebugString(int depth, size_t key_bytes, ValueWalk& walk,
                         std::string* out) const;
  Result<Json> ToJsonInternal(int depth, size_t key_bytes,
                              ValueWalk& walk) const;

  Kind kind_ = Kind::kNull;
  union {
    bool bool_;
    int64_t int_ = 0;
    double double_;
    List* list_;
    DictCell* dict_;
    Closure* closure_;
  };
  // The string or native function. Both are immutable and hold no
  // references, so reference counting cannot form a cycle.
  std::shared_ptr<const void> shared_;
};

// Fails when a string of `length` bytes would be longer than
// kMaxStringBytes. Builders call it before building.
Status CheckStringLength(uint64_t length);

// Owns every list, dict and closure cell one interpreter session creates,
// and frees them all in one flat pass when the session ends: no cycle can
// leak, and teardown does not recurse down nested values. Garbage stays
// until then, so each cell and each built string is charged against
// kArenaBudgetBytes before it is built or grown; past the budget,
// evaluation fails with InvalidConfig.
class ValueArena {
 public:
  ValueArena() = default;
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  Result<Value> MakeList(Value::List items = {});
  Result<Value> MakeDict(Value::Dict items = {}, std::string type_name = "");
  Result<Value> MakeClosure(Closure closure);
  // A string an operator or builtin built; fails past kMaxStringBytes.
  Result<Value> Str(std::string s);

  // Charges `bytes` of growth to an existing cell.
  Status Charge(size_t bytes);
  // Fails if `bytes` more would exceed the budget. Called before building
  // a large list, so nothing is allocated past it.
  Status CheckFits(size_t bytes) const;
  // What one new dict entry under `key` is charged.
  static size_t DictEntryBytes(const std::string& key);

 private:
  std::deque<Value::List> lists_;
  std::deque<Value::DictCell> dicts_;
  std::deque<Closure> closures_;
  size_t charged_ = 0;
};

}  // namespace configerator

#endif  // SRC_LANG_VALUE_H_
