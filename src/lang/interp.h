// Tree-walking evaluator for the config source language.
//
// The interpreter is sandboxed on purpose: no filesystem, no network, no
// clock — config programs are pure functions from source (plus imported
// modules) to exported JSON, which is what makes compiled configs
// reproducible and reviewable. Imports and exports are delegated to hooks
// supplied by the compiler. A step limit bounds runaway config code; a
// call-depth limit and a stack budget bound the interpreter's recursion; the
// session's ValueArena bounds the memory its values take.

#ifndef SRC_LANG_INTERP_H_
#define SRC_LANG_INTERP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/value.h"
#include "src/schema/schema.h"
#include "src/util/status.h"

namespace configerator {

// Lexical scope. Lookup walks the parent chain; assignment writes the
// innermost scope (Python-like).
//
// Lifetime: environments are reference-counted. A call frame is freed when
// its call returns, unless a closure captured it; the closure's cell, owned
// by the session's arena, then owns the frame. A frame's bindings point at
// cells without owning them, so no reference cycle can form.
class Environment {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  // Finds a binding anywhere in the chain; nullptr if absent.
  Value* Find(const std::string& name);

  // Defines or overwrites in this scope.
  void Define(const std::string& name, Value value) {
    vars_[name] = std::move(value);
  }

  const std::map<std::string, Value>& vars() const { return vars_; }

 private:
  std::map<std::string, Value> vars_;
  std::shared_ptr<Environment> parent_;
};

class Interp {
 public:
  struct Hooks {
    // Resolves `import_python(path, ...)`: evaluates (or returns cached)
    // module globals.
    std::function<Result<std::shared_ptr<Environment>>(const std::string& path)>
        import_module;
    // Resolves `import_thrift(path)`: loads schemas into the registry.
    std::function<Status(const std::string& path)> import_schema;
    // Receives `export_if_last(value)` / `export(name, value)` calls.
    // `name` is empty for export_if_last (compiler names it after the file).
    std::function<Status(const std::string& name, const Value& value)>
        export_config;
  };

  Interp(const SchemaRegistry* registry, Hooks hooks);

  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  // Creates a scope chained from `parent` (module globals, call frames).
  static std::shared_ptr<Environment> NewEnvironment(
      std::shared_ptr<Environment> parent = nullptr) {
    return std::make_shared<Environment>(std::move(parent));
  }

  // Evaluates a module body in `globals`. `exports_enabled` is true only for
  // the entry file — imported library modules calling export_if_last() are
  // no-ops, matching the paper's semantics ("export if last").
  Status EvalModule(const Module& module, const std::shared_ptr<Environment>& globals,
                    bool exports_enabled);

  // Calls a function value with evaluated arguments. Used by the compiler to
  // invoke validators.
  Result<Value> CallValue(const Value& fn, std::vector<Value> args,
                          std::map<std::string, Value> kwargs);

  // Environment pre-populated with builtins, schema constructors and enum
  // namespaces. New globals should chain from this.
  std::shared_ptr<Environment> MakeBaseEnvironment();

  // Total evaluation steps allowed per EvalModule (default 20M).
  void set_step_limit(uint64_t limit) { step_limit_ = limit; }

  // Owns every list, dict and closure this session creates; they live until
  // the interpreter is destroyed.
  ValueArena& arena() { return arena_; }

 private:
  struct Flow {
    enum class Kind { kNormal, kBreak, kContinue, kReturn };
    Kind kind = Kind::kNormal;
    Value value;
  };

  Status Tick(int line);
  Status EvalError(int line, const std::string& msg) const;
  // `result`, or its error prefixed with the origin and `line`.
  template <typename T>
  Result<T> AtLine(int line, Result<T> result) const {
    if (!result.ok()) {
      return EvalError(line, result.status().message());
    }
    return result;
  }

  Result<Flow> ExecBlock(const std::vector<StmtPtr>& body,
                         const std::shared_ptr<Environment>& env);
  Result<Flow> ExecStmt(const Stmt& stmt, const std::shared_ptr<Environment>& env);
  Result<Value> Eval(const Expr& expr, const std::shared_ptr<Environment>& env);
  Result<Value> EvalBinary(const Expr& expr, const std::shared_ptr<Environment>& env);
  Result<Value> EvalCall(const Expr& expr, const std::shared_ptr<Environment>& env);
  Status Assign(const Expr& target, Value value,
                const std::shared_ptr<Environment>& env);

  const SchemaRegistry* registry_;
  Hooks hooks_;
  ValueArena arena_;
  std::shared_ptr<Environment> base_env_;
  // Why the base environment's enum namespaces could not be built, if they
  // could not; EvalModule reports it.
  Status base_status_;
  std::string current_origin_;
  bool exports_enabled_ = false;
  uint64_t step_limit_ = 20'000'000;
  uint64_t steps_ = 0;
  int call_depth_ = 0;
  // Stack position of the outermost EvalModule/CallValue in progress; 0
  // when none is. Tick() measures the interpreter's stack use from here.
  uintptr_t stack_base_ = 0;
};

}  // namespace configerator

#endif  // SRC_LANG_INTERP_H_
