#include "src/lang/interp.h"

#include "src/lang/builtins.h"
#include "src/lang/import_resolver.h"
#include "src/lang/ops.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

constexpr int kMaxCallDepth = 200;

// Stack the interpreter may use below its outermost entry point. The
// parser caps each module's tree at kMaxCslAstDepth, but calls and imports
// stack one evaluation on another; this bounds the total. It is a byte
// budget rather than a level count because frame sizes differ several-fold
// between builds (sanitizers inflate them), and the point is that no build
// overflows its stack.
constexpr uintptr_t kMaxEvalStackBytes = uintptr_t{4} << 20;

uintptr_t StackPosition() {
  return reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
}

// Sets `*base` to the current stack position for its scope, unless an
// enclosing entry point already has.
class StackBase {
 public:
  explicit StackBase(uintptr_t* base) : base_(*base == 0 ? base : nullptr) {
    if (base_ != nullptr) {
      *base_ = StackPosition();
    }
  }
  ~StackBase() {
    if (base_ != nullptr) {
      *base_ = 0;
    }
  }
  StackBase(const StackBase&) = delete;
  StackBase& operator=(const StackBase&) = delete;

 private:
  uintptr_t* base_;
};

}  // namespace

Value* Environment::Find(const std::string& name) {
  Environment* env = this;
  while (env != nullptr) {
    auto it = env->vars_.find(name);
    if (it != env->vars_.end()) {
      return &it->second;
    }
    env = env->parent_.get();
  }
  return nullptr;
}

Interp::Interp(const SchemaRegistry* registry, Hooks hooks)
    : registry_(registry), hooks_(std::move(hooks)) {}

Status Interp::Tick(int line) {
  if (++steps_ > step_limit_) {
    return EvalError(line, "evaluation step limit exceeded (runaway config code?)");
  }
  // The stack grows down from stack_base_.
  if (stack_base_ - StackPosition() > kMaxEvalStackBytes) {
    return EvalError(line,
                     "evaluation nested too deeply (recursion or expression "
                     "depth exceeds the interpreter's stack budget)");
  }
  return OkStatus();
}

Status Interp::EvalError(int line, const std::string& msg) const {
  return InvalidConfigError(
      StrFormat("%s:%d: %s", current_origin_.c_str(), line, msg.c_str()));
}

std::shared_ptr<Environment> Interp::MakeBaseEnvironment() {
  if (base_env_ == nullptr) {
    // Builtins live in a shared immutable parent scope; only the session's
    // schema constructors / enum namespaces go in this (mutable) layer.
    base_env_ = std::make_shared<Environment>(SharedBuiltinsEnvironment());
    if (registry_ != nullptr) {
      base_status_ =
          RegisterSchemaConstructors(*registry_, base_env_.get(), arena_);
    }
  }
  return base_env_;
}

Status Interp::EvalModule(const Module& module,
                          const std::shared_ptr<Environment>& globals,
                          bool exports_enabled) {
  RETURN_IF_ERROR(base_status_);
  StackBase stack_base(&stack_base_);
  std::string saved_origin = current_origin_;
  bool saved_exports = exports_enabled_;
  current_origin_ = module.path;
  exports_enabled_ = exports_enabled;
  steps_ = 0;

  auto restore = [&] {
    current_origin_ = saved_origin;
    exports_enabled_ = saved_exports;
  };

  auto flow = ExecBlock(module.body, globals);
  restore();
  if (!flow.ok()) {
    return flow.status();
  }
  return OkStatus();
}

Result<Interp::Flow> Interp::ExecBlock(const std::vector<StmtPtr>& body,
                                       const std::shared_ptr<Environment>& env) {
  for (const StmtPtr& stmt : body) {
    ASSIGN_OR_RETURN(Flow flow, ExecStmt(*stmt, env));
    if (flow.kind != Flow::Kind::kNormal) {
      return flow;
    }
  }
  return Flow{};
}

Result<Interp::Flow> Interp::ExecStmt(const Stmt& stmt,
                                      const std::shared_ptr<Environment>& env) {
  RETURN_IF_ERROR(Tick(stmt.line));
  switch (stmt.kind) {
    case Stmt::Kind::kExpr: {
      ASSIGN_OR_RETURN(Value ignored, Eval(*stmt.target, env));
      (void)ignored;
      return Flow{};
    }
    case Stmt::Kind::kAssign: {
      ASSIGN_OR_RETURN(Value value, Eval(*stmt.value, env));
      RETURN_IF_ERROR(Assign(*stmt.target, std::move(value), env));
      return Flow{};
    }
    case Stmt::Kind::kAugAssign: {
      ASSIGN_OR_RETURN(Value current, Eval(*stmt.target, env));
      ASSIGN_OR_RETURN(Value delta, Eval(*stmt.value, env));
      // Synthesize `current OP delta`.
      Expr synth;
      synth.kind = Expr::Kind::kBinary;
      synth.name = stmt.op;
      synth.line = stmt.line;
      auto lhs = std::make_unique<Expr>();
      lhs->kind = Expr::Kind::kLiteral;
      lhs->line = stmt.line;
      lhs->literal = std::move(current);
      auto rhs = std::make_unique<Expr>();
      rhs->kind = Expr::Kind::kLiteral;
      rhs->line = stmt.line;
      rhs->literal = std::move(delta);
      synth.lhs = std::move(lhs);
      synth.rhs = std::move(rhs);
      ASSIGN_OR_RETURN(Value combined, EvalBinary(synth, env));
      RETURN_IF_ERROR(Assign(*stmt.target, std::move(combined), env));
      return Flow{};
    }
    case Stmt::Kind::kIf: {
      ASSIGN_OR_RETURN(Value cond, Eval(*stmt.target, env));
      if (cond.Truthy()) {
        return ExecBlock(stmt.body, env);
      }
      return ExecBlock(stmt.orelse, env);
    }
    case Stmt::Kind::kFor: {
      ASSIGN_OR_RETURN(Value iterable, Eval(*stmt.value, env));
      ASSIGN_OR_RETURN(Value::List items,
                       AtLine(stmt.line, IterableItems(iterable, arena_)));
      for (Value& item : items) {
        RETURN_IF_ERROR(Tick(stmt.line));
        if (stmt.loop_vars.size() == 1) {
          env->Define(stmt.loop_vars[0], std::move(item));
        } else {
          if (!item.is_list() || item.as_list().size() != stmt.loop_vars.size()) {
            return EvalError(stmt.line, "cannot unpack loop value");
          }
          for (size_t i = 0; i < stmt.loop_vars.size(); ++i) {
            env->Define(stmt.loop_vars[i], item.as_list()[i]);
          }
        }
        ASSIGN_OR_RETURN(Flow flow, ExecBlock(stmt.body, env));
        if (flow.kind == Flow::Kind::kBreak) {
          break;
        }
        if (flow.kind == Flow::Kind::kReturn) {
          return flow;
        }
      }
      return Flow{};
    }
    case Stmt::Kind::kWhile: {
      while (true) {
        RETURN_IF_ERROR(Tick(stmt.line));
        ASSIGN_OR_RETURN(Value cond, Eval(*stmt.target, env));
        if (!cond.Truthy()) {
          break;
        }
        ASSIGN_OR_RETURN(Flow flow, ExecBlock(stmt.body, env));
        if (flow.kind == Flow::Kind::kBreak) {
          break;
        }
        if (flow.kind == Flow::Kind::kReturn) {
          return flow;
        }
      }
      return Flow{};
    }
    case Stmt::Kind::kDef: {
      ASSIGN_OR_RETURN(
          Value fn,
          AtLine(stmt.line, arena_.MakeClosure(Closure{stmt.def.get(), env})));
      env->Define(stmt.def->name, std::move(fn));
      return Flow{};
    }
    case Stmt::Kind::kReturn: {
      Flow flow;
      flow.kind = Flow::Kind::kReturn;
      if (stmt.target != nullptr) {
        ASSIGN_OR_RETURN(flow.value, Eval(*stmt.target, env));
      }
      return flow;
    }
    case Stmt::Kind::kAssert: {
      ASSIGN_OR_RETURN(Value cond, Eval(*stmt.target, env));
      if (!cond.Truthy()) {
        std::string message = "assertion failed";
        if (stmt.value != nullptr) {
          ASSIGN_OR_RETURN(Value msg, Eval(*stmt.value, env));
          message = msg.is_string() ? msg.as_string() : msg.ToDebugString();
        }
        return EvalError(stmt.line, message);
      }
      return Flow{};
    }
    case Stmt::Kind::kPass:
      return Flow{};
    case Stmt::Kind::kBreak: {
      Flow flow;
      flow.kind = Flow::Kind::kBreak;
      return flow;
    }
    case Stmt::Kind::kContinue: {
      Flow flow;
      flow.kind = Flow::Kind::kContinue;
      return flow;
    }
  }
  return InternalError("unhandled statement kind");
}

Status Interp::Assign(const Expr& target, Value value,
                      const std::shared_ptr<Environment>& env) {
  switch (target.kind) {
    case Expr::Kind::kName: {
      env->Define(target.name, std::move(value));
      return OkStatus();
    }
    case Expr::Kind::kAttr: {
      ASSIGN_OR_RETURN(Value base, Eval(*target.lhs, env));
      Status set = EvalAttrSet(base, target.name, std::move(value), arena_);
      return set.ok() ? set : EvalError(target.line, set.message());
    }
    case Expr::Kind::kIndex: {
      ASSIGN_OR_RETURN(Value base, Eval(*target.lhs, env));
      ASSIGN_OR_RETURN(Value key, Eval(*target.rhs, env));
      Status set = EvalIndexSet(base, key, std::move(value), arena_);
      return set.ok() ? set : EvalError(target.line, set.message());
    }
    default:
      return EvalError(target.line, "invalid assignment target");
  }
}

Result<Value> Interp::Eval(const Expr& expr, const std::shared_ptr<Environment>& env) {
  RETURN_IF_ERROR(Tick(expr.line));
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kName: {
      Value* found = env->Find(expr.name);
      if (found == nullptr) {
        return EvalError(expr.line, "undefined name '" + expr.name + "'");
      }
      return *found;
    }
    case Expr::Kind::kList: {
      Value::List items;
      items.reserve(expr.items.size());
      for (const ExprPtr& item : expr.items) {
        ASSIGN_OR_RETURN(Value v, Eval(*item, env));
        items.push_back(std::move(v));
      }
      return AtLine(expr.line, arena_.MakeList(std::move(items)));
    }
    case Expr::Kind::kDict: {
      Value::Dict items;
      for (const auto& [key_expr, value_expr] : expr.pairs) {
        ASSIGN_OR_RETURN(Value key, Eval(*key_expr, env));
        if (!key.is_string()) {
          return EvalError(expr.line, "dict keys must be strings");
        }
        ASSIGN_OR_RETURN(Value value, Eval(*value_expr, env));
        items[key.as_string()] = std::move(value);
      }
      return AtLine(expr.line, arena_.MakeDict(std::move(items)));
    }
    case Expr::Kind::kUnary: {
      ASSIGN_OR_RETURN(Value operand, Eval(*expr.lhs, env));
      return AtLine(expr.line, EvalUnaryValues(expr.name, operand));
    }
    case Expr::Kind::kTernary: {
      ASSIGN_OR_RETURN(Value cond, Eval(*expr.rhs, env));
      if (cond.Truthy()) {
        return Eval(*expr.lhs, env);
      }
      return Eval(*expr.third, env);
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, env);
    case Expr::Kind::kAttr: {
      ASSIGN_OR_RETURN(Value base, Eval(*expr.lhs, env));
      return AtLine(expr.line, EvalAttrGet(base, expr.name));
    }
    case Expr::Kind::kIndex: {
      ASSIGN_OR_RETURN(Value base, Eval(*expr.lhs, env));
      ASSIGN_OR_RETURN(Value key, Eval(*expr.rhs, env));
      return AtLine(expr.line, EvalIndexGet(base, key));
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, env);
  }
  return InternalError("unhandled expression kind");
}

Result<Value> Interp::EvalBinary(const Expr& expr,
                                 const std::shared_ptr<Environment>& env) {
  const std::string& op = expr.name;

  // Short-circuit logicals return the deciding operand, like Python.
  if (op == "and") {
    ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, env));
    if (!lhs.Truthy()) {
      return lhs;
    }
    return Eval(*expr.rhs, env);
  }
  if (op == "or") {
    ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, env));
    if (lhs.Truthy()) {
      return lhs;
    }
    return Eval(*expr.rhs, env);
  }

  std::optional<BinOp> bin = ParseBinOp(op);
  if (!bin.has_value()) {
    return EvalError(expr.line, "unknown binary operator '" + op + "'");
  }

  ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, env));
  ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, env));
  return AtLine(expr.line, EvalBinaryValues(*bin, lhs, rhs, arena_));
}

Result<Value> Interp::EvalCall(const Expr& expr,
                               const std::shared_ptr<Environment>& env) {
  // Special forms: imports and exports, which need interpreter context.
  if (expr.lhs->kind == Expr::Kind::kName) {
    const std::string& name = expr.lhs->name;
    if (name == "import_python" || name == "import_thrift") {
      if (expr.items.empty()) {
        return EvalError(expr.line, name + "() needs a path argument");
      }
      ASSIGN_OR_RETURN(Value path_value, Eval(*expr.items[0], env));
      if (!path_value.is_string()) {
        return EvalError(expr.line, name + "() path must be a string");
      }
      const std::string& path = path_value.as_string();
      if (IsSchemaImportPath(name, path)) {
        if (!hooks_.import_schema) {
          return EvalError(expr.line, "schema imports not available here");
        }
        RETURN_IF_ERROR(hooks_.import_schema(path));
        // Newly registered schemas need constructors in the base env.
        if (registry_ != nullptr && base_env_ != nullptr) {
          Status registered =
              RegisterSchemaConstructors(*registry_, base_env_.get(), arena_);
          if (!registered.ok()) {
            return EvalError(expr.line, registered.message());
          }
        }
        return Value::Null();
      }
      if (!hooks_.import_module) {
        return EvalError(expr.line, "module imports not available here");
      }
      auto imported = hooks_.import_module(path);
      if (!imported.ok()) {
        return imported.status();
      }
      // Star import (the default and the paper's convention) copies the
      // module's globals; a specific symbol may be named instead.
      std::string filter = "*";
      if (expr.items.size() >= 2) {
        ASSIGN_OR_RETURN(Value f, Eval(*expr.items[1], env));
        if (!f.is_string()) {
          return EvalError(expr.line, "import filter must be a string");
        }
        filter = f.as_string();
      }
      for (const auto& [symbol, value] : (*imported)->vars()) {
        if (filter == "*" || filter == symbol) {
          env->Define(symbol, value);
        }
      }
      return Value::Null();
    }
    if (name == "export_if_last" || name == "export") {
      std::string export_name;
      const Expr* value_expr = nullptr;
      if (name == "export") {
        if (expr.items.size() != 2) {
          return EvalError(expr.line, "export(name, value) needs two arguments");
        }
        ASSIGN_OR_RETURN(Value n, Eval(*expr.items[0], env));
        if (!n.is_string()) {
          return EvalError(expr.line, "export name must be a string");
        }
        export_name = n.as_string();
        value_expr = expr.items[1].get();
      } else {
        if (expr.items.size() != 1) {
          return EvalError(expr.line, "export_if_last(value) needs one argument");
        }
        value_expr = expr.items[0].get();
      }
      ASSIGN_OR_RETURN(Value value, Eval(*value_expr, env));
      if (exports_enabled_ && hooks_.export_config) {
        RETURN_IF_ERROR(hooks_.export_config(export_name, value));
      }
      return Value::Null();
    }
  }

  ASSIGN_OR_RETURN(Value callee, Eval(*expr.lhs, env));
  if (!callee.is_callable()) {
    return EvalError(expr.line,
                     "value of type " + std::string(callee.KindName()) +
                         " is not callable");
  }

  std::vector<Value> args;
  args.reserve(expr.items.size());
  for (const ExprPtr& arg : expr.items) {
    ASSIGN_OR_RETURN(Value v, Eval(*arg, env));
    args.push_back(std::move(v));
  }
  std::map<std::string, Value> kwargs;
  for (const auto& [kw, arg_expr] : expr.kwargs) {
    ASSIGN_OR_RETURN(Value v, Eval(*arg_expr, env));
    kwargs[kw] = std::move(v);
  }

  auto result = CallValue(callee, std::move(args), std::move(kwargs));
  if (!result.ok()) {
    // Prefix the call site for a usable "stack trace".
    return InvalidConfigError(StrFormat("%s:%d: in call: %s",
                                        current_origin_.c_str(), expr.line,
                                        result.status().message().c_str()));
  }
  return result;
}

Result<Value> Interp::CallValue(const Value& fn, std::vector<Value> args,
                                std::map<std::string, Value> kwargs) {
  if (fn.kind() == Value::Kind::kNative) {
    return fn.as_native().fn(arena_, args, kwargs);
  }
  if (fn.kind() != Value::Kind::kClosure) {
    return InvalidArgumentError("value is not callable");
  }
  StackBase stack_base(&stack_base_);
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    return InvalidConfigError("recursion limit exceeded");
  }

  const Closure& closure = fn.as_closure();
  const FunctionDefStmt& def = *closure.def;
  auto locals = NewEnvironment(closure.env);

  // Runtime errors inside the function body (and its default-argument
  // expressions) belong to the module that defines the function, which may
  // not be the module currently being evaluated.
  std::string saved_origin = current_origin_;
  if (!def.origin.empty()) {
    current_origin_ = def.origin;
  }

  std::vector<bool> has_default(def.params.size(), false);
  for (size_t i = 0; i < def.params.size(); ++i) {
    has_default[i] = def.defaults[i] != nullptr;
  }
  Status bind_status = BindCallArgs(
      def.name, def.params, has_default, std::move(args), std::move(kwargs),
      [&](size_t i, Value v) { locals->Define(def.params[i], std::move(v)); },
      [&](size_t i) { return Eval(*def.defaults[i], locals); });
  if (!bind_status.ok()) {
    --call_depth_;
    current_origin_ = saved_origin;
    return bind_status;
  }

  auto flow = ExecBlock(def.body, locals);
  --call_depth_;
  current_origin_ = saved_origin;
  if (!flow.ok()) {
    return flow.status();
  }
  if (flow->kind == Flow::Kind::kReturn) {
    return flow->value;
  }
  return Value::Null();
}

}  // namespace configerator
