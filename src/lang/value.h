// Runtime value model for the config source language (CSL).
//
// The paper's config sources are "Python files manipulating Thrift objects".
// CSL reproduces that shape: values are null/bool/int/double/string, lists,
// dicts, schema-typed objects (a dict tagged with its Thrift struct name),
// and functions. Lists and dicts have reference semantics (shared_ptr) so
// `job.limits["x"] = 1` mutates the object, as in Python.

#ifndef SRC_LANG_VALUE_H_
#define SRC_LANG_VALUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/util/status.h"

namespace configerator {

class Value;
class Environment;
class ContainerCycleBreaker;
struct FunctionDefStmt;  // AST node, defined in ast.h.

// A user-defined function plus the environment it closed over. `def` points
// into a parsed Module, which the compile session keeps alive.
struct Closure {
  const FunctionDefStmt* def = nullptr;
  std::shared_ptr<Environment> env;
};

// A native (C++-implemented) function. Receives evaluated positional args and
// keyword args.
using NativeFn = std::function<Result<Value>(
    std::vector<Value>& args, std::map<std::string, Value>& kwargs)>;

struct NativeFunction {
  std::string name;
  NativeFn fn;
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

  Value() : kind_(Kind::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Double(double d);
  static Value Str(std::string s);
  static Value MakeList();
  static Value MakeList(List items);
  static Value MakeDict();
  static Value MakeDict(Dict items, std::string type_name = "");
  static Value MakeClosure(Closure c);
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
  const std::string& as_string() const { return *string_; }
  List& as_list() { return *list_; }
  const List& as_list() const { return *list_; }
  Dict& as_dict() { return *dict_; }
  const Dict& as_dict() const { return *dict_; }
  const Closure& as_closure() const { return *closure_; }
  const NativeFunction& as_native() const { return *native_; }

  // Schema type tag for dicts created by a struct constructor ("Job").
  // Empty for plain dicts.
  const std::string& type_name() const { return type_name_; }
  void set_type_name(std::string name) { type_name_ = std::move(name); }

  // Python-style truthiness: None/False/0/""/[]/{} are false.
  bool Truthy() const;

  // Deep structural equality (functions compare by identity).
  bool Equals(const Value& other) const;

  // "int", "list", ... for error messages.
  std::string_view KindName() const;

  // Debug/display rendering (repr-like). Truncates beyond a depth cap, so
  // it is safe on self-referential containers.
  std::string ToDebugString() const { return ToDebugStringInternal(0); }

  // Converts to JSON for export. Fails on functions and on pathologically
  // deep (or self-referential — the language permits `d["self"] = d`)
  // structures.
  Result<Json> ToJson() const { return ToJsonInternal(0); }

  // Builds a value from JSON (plain dicts/lists; no type tags).
  static Value FromJson(const Json& json);

 private:
  friend class ContainerCycleBreaker;  // Traverses cells to find cycles.

  Result<Json> ToJsonInternal(int depth) const;
  std::string ToDebugStringInternal(int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::shared_ptr<std::string> string_;
  std::shared_ptr<List> list_;
  std::shared_ptr<Dict> dict_;
  std::shared_ptr<Closure> closure_;
  std::shared_ptr<NativeFunction> native_;
  std::string type_name_;
};

// Breaks shared_ptr cycles through mutable containers. The language permits
// self-referential structures (`d["self"] = d`) whose cells keep each other
// alive after the last outside reference drops; clearing environments at
// interpreter teardown cannot reach a cycle that no longer hangs off any
// scope.
// While a breaker is installed, every list/dict cell Value creates on this
// thread is tracked weakly; BreakCycles() empties exactly the surviving
// cells that can reach themselves through container edges — cyclic
// structures are dismantled, while acyclic values that legitimately
// outlive the interpreter (a caller holding an evaluation result) are
// left intact. The interpreter installs one for its lifetime (so every cell
// an evaluation can create is covered) and breaks cycles on destruction,
// right after clearing its environments — which is what guarantees the
// remaining cycles run purely through containers. Installations form a
// per-thread chain; a breaker destroyed out of order (e.g. replacing an
// interpreter via `ptr = std::make_unique<Interp>(...)`, which constructs the
// new breaker before destroying the old) splices itself out safely.
class ContainerCycleBreaker {
 public:
  ContainerCycleBreaker();
  ~ContainerCycleBreaker();  // BreakCycles(), then uninstalls.
  ContainerCycleBreaker(const ContainerCycleBreaker&) = delete;
  ContainerCycleBreaker& operator=(const ContainerCycleBreaker&) = delete;

  // Empties every still-alive tracked cell that participates in a
  // reference cycle.
  void BreakCycles();

 private:
  friend class Value;
  static ContainerCycleBreaker*& Current();
  void Track(const std::shared_ptr<Value::List>& cell);
  void Track(const std::shared_ptr<Value::Dict>& cell);
  void MaybeCompact();

  std::vector<std::weak_ptr<Value::List>> lists_;
  std::vector<std::weak_ptr<Value::Dict>> dicts_;
  size_t compact_threshold_ = 1024;
  ContainerCycleBreaker* prev_ = nullptr;
};

}  // namespace configerator

#endif  // SRC_LANG_VALUE_H_
