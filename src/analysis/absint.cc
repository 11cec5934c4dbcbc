#include "src/analysis/absint.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/lang/ast.h"
#include "src/lang/builtins.h"
#include "src/lang/import_resolver.h"
#include "src/lang/ops.h"
#include "src/lang/unit_cache.h"
#include "src/util/strings.h"

namespace configerator {

using Bindings = std::map<std::string, AbstractValue>;
using OriginSet = std::set<std::pair<std::string, std::string>>;

namespace {

// `a OP b` for interval bounds: none where an input has none, or where the
// interpreter's checked int64 arithmetic fails.
std::optional<int64_t> BoundArithmetic(BinOp op, std::optional<int64_t> a,
                                       std::optional<int64_t> b) {
  if (!a.has_value() || !b.has_value()) {
    return std::nullopt;
  }
  Result<Value> out = IntArithmetic(op, *a, *b);
  return out.ok() ? std::optional<int64_t>(out->as_int()) : std::nullopt;
}

}  // namespace

// ---- AbstractValue basics ---------------------------------------------------

AbstractValue AbstractValue::MakeAny() { return AbstractValue(); }

AbstractValue AbstractValue::Bottom() {
  AbstractValue v;
  v.kinds = 0;
  v.any = false;
  return v;
}

AbstractValue AbstractValue::OfKinds(uint32_t kinds) {
  AbstractValue v;
  v.kinds = kinds;
  v.any = false;
  return v;
}

AbstractValue AbstractValue::OfConstant(const Value& c) {
  AbstractValue v;
  v.any = false;
  switch (c.kind()) {
    case Value::Kind::kNull:
      v.kinds = kAbsNull;
      break;
    case Value::Kind::kBool:
      v.kinds = kAbsBool;
      v.constant = c;
      break;
    case Value::Kind::kInt:
      v.kinds = kAbsInt;
      v.constant = c;
      v.int_min = c.as_int();
      v.int_max = c.as_int();
      break;
    case Value::Kind::kDouble:
      v.kinds = kAbsDouble;
      v.constant = c;
      break;
    case Value::Kind::kString:
      v.kinds = kAbsString;
      v.constant = c;
      break;
    default:
      return MakeAny();  // Containers/functions go through the heap instead.
  }
  return v;
}

std::optional<bool> AbstractValue::TruthyIfKnown() const {
  if (any) {
    return std::nullopt;
  }
  if (constant.has_value()) {
    return constant->Truthy();
  }
  if (only(kAbsNull)) {
    return false;
  }
  if (only(kAbsFunction)) {
    return true;  // Callables are always truthy.
  }
  if (only(kAbsInt) && int_min.has_value() && int_max.has_value() &&
      (*int_min > 0 || *int_max < 0)) {
    return true;  // Provably nonzero.
  }
  return std::nullopt;
}

std::string AbstractValue::Describe() const {
  if (any) {
    return "unknown";
  }
  if (kinds == 0) {
    return "unreachable";
  }
  static const std::pair<uint32_t, const char*> kNames[] = {
      {kAbsNull, "None"},     {kAbsBool, "bool"},   {kAbsInt, "int"},
      {kAbsDouble, "double"}, {kAbsString, "string"}, {kAbsList, "list"},
      {kAbsDict, "dict"},     {kAbsFunction, "function"},
  };
  std::string out;
  for (const auto& [mask, name] : kNames) {
    if (kinds & mask) {
      if (!out.empty()) {
        out += " | ";
      }
      out += name;
    }
  }
  return out;
}

// ---- AbstractHeap -----------------------------------------------------------

HeapId AbstractHeap::Alloc(AbstractObject object) {
  HeapId id = next_++;
  objects_.emplace(id, std::move(object));
  return id;
}

AbstractObject* AbstractHeap::Get(HeapId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

const AbstractObject* AbstractHeap::Get(HeapId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

namespace {

// ---- Join machinery ---------------------------------------------------------
//
// Joins run against one live heap. Merging two *different* objects allocates
// a fresh joined node; the memo short-circuits aliasing cycles
// (`d["self"] = d`).

struct JoinContext {
  AbstractHeap* heap;
  std::map<std::pair<HeapId, HeapId>, HeapId> memo;

  AbstractValue Values(const AbstractValue& a, const AbstractValue& b);
  HeapId Objects(HeapId a, HeapId b);
  AbstractObject ObjectContents(const AbstractObject& a,
                                const AbstractObject& b);
};

AbstractValue JoinValues(AbstractHeap* heap, const AbstractValue& a,
                         const AbstractValue& b) {
  JoinContext ctx{heap, {}};
  return ctx.Values(a, b);
}

AbstractValue JoinContext::Values(const AbstractValue& a,
                                  const AbstractValue& b) {
  if (a.is_bottom()) {
    AbstractValue out = b;
    out.origins.insert(a.origins.begin(), a.origins.end());
    return out;
  }
  if (b.is_bottom()) {
    AbstractValue out = a;
    out.origins.insert(b.origins.begin(), b.origins.end());
    return out;
  }
  if (a.any || b.any) {
    AbstractValue out = AbstractValue::MakeAny();
    out.origins = a.origins;
    out.origins.insert(b.origins.begin(), b.origins.end());
    return out;
  }
  AbstractValue out = AbstractValue::OfKinds(a.kinds | b.kinds);
  if (a.constant.has_value() && b.constant.has_value() &&
      a.constant->Equals(*b.constant).value_or(false)) {
    out.constant = a.constant;
  }
  if (a.int_min.has_value() && b.int_min.has_value()) {
    out.int_min = std::min(*a.int_min, *b.int_min);
  }
  if (a.int_max.has_value() && b.int_max.has_value()) {
    out.int_max = std::max(*a.int_max, *b.int_max);
  }
  if (a.object != kNoHeapId && b.object != kNoHeapId) {
    out.object = a.object == b.object ? a.object : Objects(a.object, b.object);
  } else if (a.object != kNoHeapId) {
    out.object = a.object;  // Only one side can be a container.
  } else if (b.object != kNoHeapId) {
    out.object = b.object;
  }
  if (a.function != nullptr && b.function != nullptr &&
      a.function == b.function) {
    out.function = a.function;
  }
  out.origins = a.origins;
  out.origins.insert(b.origins.begin(), b.origins.end());
  return out;
}

HeapId JoinContext::Objects(HeapId a, HeapId b) {
  if (a > b) {
    std::swap(a, b);
  }
  auto it = memo.find({a, b});
  if (it != memo.end()) {
    return it->second;
  }
  const AbstractObject* oa = heap->Get(a);
  const AbstractObject* ob = heap->Get(b);
  if (oa == nullptr) {
    return b;
  }
  if (ob == nullptr) {
    return a;
  }
  // Reserve the id before recursing so cycles resolve to it.
  HeapId joined = heap->Alloc(AbstractObject{});
  memo[{a, b}] = joined;
  AbstractObject contents = ObjectContents(*heap->Get(a), *heap->Get(b));
  *heap->Get(joined) = std::move(contents);
  return joined;
}

AbstractObject JoinContext::ObjectContents(const AbstractObject& a,
                                           const AbstractObject& b) {
  AbstractObject out;
  out.is_list = a.is_list || b.is_list;
  out.struct_names = a.struct_names;
  out.struct_names.insert(b.struct_names.begin(), b.struct_names.end());
  out.fields_known = a.fields_known && b.fields_known;
  out.element = Values(a.element, b.element);
  out.definitely_nonempty = a.definitely_nonempty && b.definitely_nonempty;
  for (const auto& [name, field] : a.fields) {
    auto bit = b.fields.find(name);
    if (bit == b.fields.end()) {
      AbstractField f = field;
      f.maybe_absent = true;  // Absent on the other branch.
      out.fields.emplace(name, std::move(f));
    } else {
      AbstractField f;
      f.value = Values(field.value, bit->second.value);
      f.maybe_absent = field.maybe_absent || bit->second.maybe_absent;
      out.fields.emplace(name, std::move(f));
    }
  }
  for (const auto& [name, field] : b.fields) {
    if (a.fields.count(name) == 0) {
      AbstractField f = field;
      f.maybe_absent = true;
      out.fields.emplace(name, std::move(f));
    }
  }
  return out;
}

}  // namespace

// ---- The analyzer -----------------------------------------------------------

namespace {

// Stack one analysis may use below Run's frame, like the interpreter's
// kMaxEvalStackBytes: the AST depth cap bounds one body, but calls (up to
// 16 deep) and imports stack one body's walk on another.
constexpr uintptr_t kMaxAnalysisStackBytes = uintptr_t{4} << 20;

class Analyzer {
 public:
  Analyzer(const FileReader& reader, CompiledUnitCache& units)
      : reader_(reader), units_(units) {}

  // A module's globals map can hold a function whose env shared_ptr points
  // back at that same map; clear the maps to break the cycles.
  ~Analyzer() {
    for (auto& [path, globals] : module_cache_) {
      if (globals != nullptr) {
        globals->clear();
      }
    }
  }

  AbsintResult Run(const std::string& path, const std::string& content);

 private:
  struct Ctx {
    std::string file;
    std::vector<std::shared_ptr<Bindings>> scopes;
    bool exports_enabled = false;
    OriginSet control_origins;    // Conditions guarding the current path.
    AbstractValue* return_join = nullptr;  // Function bodies only.
  };

  struct StateSnapshot {
    std::vector<Bindings> frames;
    std::map<HeapId, AbstractObject> objects;
  };

  struct ExportRec {
    std::string path;
    int line = 0;
    AbstractValue value;
    OriginSet control_origins;
  };

  // -- state plumbing --
  StateSnapshot Snapshot(const Ctx& ctx) const;
  void Restore(const StateSnapshot& snap, Ctx& ctx);
  void JoinState(const StateSnapshot& other, Ctx& ctx);
  void WidenAgainst(const StateSnapshot& prev, Ctx& ctx);
  static void WidenValue(AbstractValue& v, const AbstractValue& prev);

  // -- execution --
  bool ExecBlock(const std::vector<StmtPtr>& body, Ctx& ctx);
  bool ExecStmt(const Stmt& stmt, Ctx& ctx);
  void ExecLoop(const Stmt& stmt, Ctx& ctx);
  void BindLoopVars(const Stmt& stmt, const AbstractValue& elem, Ctx& ctx);
  AbstractValue Eval(const Expr& expr, Ctx& ctx);
  AbstractValue EvalBinary(const Expr& expr, Ctx& ctx);
  AbstractValue EvalBinaryAbstract(const std::string& op,
                                   const AbstractValue& lhs,
                                   const AbstractValue& rhs);
  AbstractValue EvalCall(const Expr& expr, Ctx& ctx);
  AbstractValue CallFunction(const AbstractFunction& fn,
                             std::vector<AbstractValue> args,
                             std::map<std::string, AbstractValue> kwargs,
                             Ctx& ctx);
  AbstractValue CallBuiltin(const std::string& name,
                            std::vector<AbstractValue>& args, Ctx& ctx);
  AbstractValue CallStructCtor(const std::string& struct_name, int line,
                               const std::map<std::string, AbstractValue>& kwargs,
                               Ctx& ctx);
  void AssignTo(const Expr& target, AbstractValue value, Ctx& ctx);
  AbstractValue LookupName(const std::string& name, Ctx& ctx);
  std::optional<bool> TruthyWithHeap(const AbstractValue& v) const;

  // -- cross-module --
  void HandleImport(const Expr& expr, Ctx& ctx);
  std::shared_ptr<Bindings> AnalyzeModule(const std::string& path);
  void LoadSchema(const std::string& path);
  void MineValidatorBounds(const std::string& validator_path,
                           const std::string& source);

  // -- results --
  void RecordExport(const Expr& expr, bool if_last, Ctx& ctx);
  void RecordReads(const AbstractValue& v);
  AbstractValue MergeDicts(const AbstractValue& a, const AbstractValue& b);
  void CollectOrigins(const AbstractValue& v, std::set<HeapId>& seen,
                      OriginSet& out) const;
  // Canonical render of an abstract value for cross-version comparison.
  // Sets *precise to false unless the render pins down one concrete value.
  std::string RenderAbstract(const AbstractValue& v, std::set<HeapId>& seen,
                             bool* precise) const;
  SymbolSummary Summarize(const AbstractValue& v) const;
  void FlattenFields(const AbstractValue& v, const std::string& prefix,
                     bool maybe_absent, int depth, std::set<HeapId>& seen,
                     AbstractFieldMap* out) const;

  // True once the analysis has used its stack budget (see Eval); marks the
  // slice unsound.
  bool OutOfStack();

  const FileReader& reader_;
  CompiledUnitCache& units_;
  uintptr_t stack_base_ = 0;  // Frame address at Run's entry.
  SchemaRegistry registry_;
  ValidatorBounds validator_bounds_;
  AbstractHeap heap_;
  Bindings schema_env_;  // Struct constructors + enum namespaces.
  std::map<std::string, std::shared_ptr<Bindings>> module_cache_;
  std::set<std::string> visiting_;
  std::set<std::string> loaded_schemas_;
  std::vector<std::shared_ptr<Module>> modules_alive_;
  std::map<std::string, std::set<std::string>> reads_;
  std::vector<LintDiagnostic> diags_;
  std::vector<ExportRec> exports_;
  std::vector<const FunctionDefStmt*> call_stack_;
  std::string entry_path_;
  bool slice_sound_ = true;
  int merge_depth_ = 0;
  // (file, line) -> truth values observed for a non-literal `if` condition.
  // One value across every abstract visit = statically decided (G008).
  std::map<std::pair<std::string, int>, std::set<bool>> branch_truths_;
};

Analyzer::StateSnapshot Analyzer::Snapshot(const Ctx& ctx) const {
  StateSnapshot snap;
  snap.frames.reserve(ctx.scopes.size());
  for (const auto& frame : ctx.scopes) {
    snap.frames.push_back(*frame);
  }
  snap.objects = heap_.objects();
  return snap;
}

void Analyzer::Restore(const StateSnapshot& snap, Ctx& ctx) {
  for (size_t i = 0; i < ctx.scopes.size() && i < snap.frames.size(); ++i) {
    *ctx.scopes[i] = snap.frames[i];
  }
  heap_.mutable_objects() = snap.objects;
}

void Analyzer::JoinState(const StateSnapshot& other, Ctx& ctx) {
  JoinContext join{&heap_, {}};
  // Heap first, so frame joins see both sides' objects.
  auto& objects = heap_.mutable_objects();
  for (const auto& [id, obj] : other.objects) {
    auto it = objects.find(id);
    if (it == objects.end()) {
      objects.emplace(id, obj);
    } else {
      it->second = join.ObjectContents(it->second, obj);
    }
  }
  for (size_t i = 0; i < ctx.scopes.size() && i < other.frames.size(); ++i) {
    Bindings& live = *ctx.scopes[i];
    const Bindings& snap = other.frames[i];
    for (auto& [name, value] : live) {
      auto it = snap.find(name);
      if (it == snap.end()) {
        // Bound on one path only: no usable fact.
        AbstractValue merged = AbstractValue::MakeAny();
        merged.origins = value.origins;
        value = merged;
      } else {
        value = join.Values(value, it->second);
      }
    }
    for (const auto& [name, value] : snap) {
      if (live.count(name) == 0) {
        AbstractValue merged = AbstractValue::MakeAny();
        merged.origins = value.origins;
        live.emplace(name, merged);
      }
    }
  }
}

void Analyzer::WidenValue(AbstractValue& v, const AbstractValue& prev) {
  if (v.any) {
    return;
  }
  if (v.constant.has_value() &&
      !(prev.constant.has_value() &&
        v.constant->Equals(*prev.constant).value_or(false))) {
    v.constant.reset();
  }
  if (v.int_min.has_value() &&
      !(prev.int_min.has_value() && *v.int_min == *prev.int_min)) {
    v.int_min.reset();
  }
  if (v.int_max.has_value() &&
      !(prev.int_max.has_value() && *v.int_max == *prev.int_max)) {
    v.int_max.reset();
  }
}

void Analyzer::WidenAgainst(const StateSnapshot& prev, Ctx& ctx) {
  for (size_t i = 0; i < ctx.scopes.size() && i < prev.frames.size(); ++i) {
    for (auto& [name, value] : *ctx.scopes[i]) {
      auto it = prev.frames[i].find(name);
      WidenValue(value, it == prev.frames[i].end() ? AbstractValue::Bottom()
                                                   : it->second);
    }
  }
  for (auto& [id, obj] : heap_.mutable_objects()) {
    auto it = prev.objects.find(id);
    const AbstractObject* old = it == prev.objects.end() ? nullptr : &it->second;
    WidenValue(obj.element, old != nullptr ? old->element
                                           : AbstractValue::Bottom());
    for (auto& [name, field] : obj.fields) {
      const AbstractField* old_field = nullptr;
      if (old != nullptr) {
        auto fit = old->fields.find(name);
        if (fit != old->fields.end()) {
          old_field = &fit->second;
        }
      }
      WidenValue(field.value, old_field != nullptr ? old_field->value
                                                   : AbstractValue::Bottom());
    }
  }
}

// -- statements --

bool Analyzer::ExecBlock(const std::vector<StmtPtr>& body, Ctx& ctx) {
  for (const StmtPtr& stmt : body) {
    if (!ExecStmt(*stmt, ctx)) {
      return false;
    }
  }
  return true;
}

bool Analyzer::ExecStmt(const Stmt& stmt, Ctx& ctx) {
  switch (stmt.kind) {
    case Stmt::Kind::kExpr:
      // `fail(...)` evaluates to bottom: the path terminates, so branches
      // ending in fail() don't pollute joins with unassigned fields.
      return !Eval(*stmt.target, ctx).is_bottom();
    case Stmt::Kind::kAssign: {
      AbstractValue value = Eval(*stmt.value, ctx);
      AssignTo(*stmt.target, std::move(value), ctx);
      return true;
    }
    case Stmt::Kind::kAugAssign: {
      // Mirror the interpreter: `target = target OP delta`.
      AbstractValue current = Eval(*stmt.target, ctx);
      AbstractValue delta = Eval(*stmt.value, ctx);
      AssignTo(*stmt.target, EvalBinaryAbstract(stmt.op, current, delta), ctx);
      return true;
    }
    case Stmt::Kind::kIf: {
      AbstractValue cond = Eval(*stmt.target, ctx);
      if (stmt.target->kind != Expr::Kind::kLiteral) {
        // Track decided truth values per site. Literal conditions are L009's
        // finding; this catches the cross-module case (`if ENABLE_X:` where
        // the flag is a constant in another file).
        std::optional<bool> known = TruthyWithHeap(cond);
        auto& truths = branch_truths_[{ctx.file, stmt.target->line}];
        if (known.has_value()) {
          truths.insert(*known);
        } else {
          // Undecided on this visit: the site is not statically dead.
          truths.insert(true);
          truths.insert(false);
        }
      }
      // Deliberately do NOT fold constant conditions here. Config programs
      // are mostly constants: `if ENABLE_X:` with today's flag value False
      // is exactly the latent branch evaluation (and canary) never reaches,
      // and checking it is this analyzer's reason to exist. Both arms run
      // and join; a schema violation on either fires branch-dependent
      // diagnostics even when today's constants make it dead.
      std::vector<OriginSet::value_type> added;
      for (const auto& origin : cond.origins) {
        if (ctx.control_origins.insert(origin).second) {
          added.push_back(origin);
        }
      }
      StateSnapshot entry_state = Snapshot(ctx);
      bool then_falls = ExecBlock(stmt.body, ctx);
      StateSnapshot then_state = Snapshot(ctx);
      Restore(entry_state, ctx);
      bool else_falls = ExecBlock(stmt.orelse, ctx);
      // Remove only the origins this `if` introduced — an enclosing branch
      // may guard on the same symbols.
      for (const auto& origin : added) {
        ctx.control_origins.erase(origin);
      }
      if (then_falls && else_falls) {
        JoinState(then_state, ctx);
        return true;
      }
      if (then_falls) {
        Restore(then_state, ctx);
        return true;
      }
      return else_falls;
    }
    case Stmt::Kind::kFor:
    case Stmt::Kind::kWhile:
      ExecLoop(stmt, ctx);
      return true;
    case Stmt::Kind::kDef: {
      auto fn = std::make_shared<AbstractFunction>();
      fn->def = stmt.def.get();
      fn->file = ctx.file;
      fn->env = ctx.scopes.front();
      AbstractValue v = AbstractValue::OfKinds(kAbsFunction);
      v.function = std::move(fn);
      (*ctx.scopes.back())[stmt.def->name] = std::move(v);
      return true;
    }
    case Stmt::Kind::kReturn: {
      AbstractValue value = stmt.target != nullptr
                                ? Eval(*stmt.target, ctx)
                                : AbstractValue::OfConstant(Value::Null());
      for (const auto& origin : ctx.control_origins) {
        value.origins.insert(origin);
      }
      if (ctx.return_join != nullptr) {
        *ctx.return_join = JoinValues(&heap_, *ctx.return_join, value);
      }
      return false;
    }
    case Stmt::Kind::kAssert:
      Eval(*stmt.target, ctx);
      if (stmt.value != nullptr) {
        Eval(*stmt.value, ctx);
      }
      return true;
    case Stmt::Kind::kPass:
      return true;
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue:
      // Approximate: stop the block here; the loop join recovers the rest.
      return false;
  }
  return true;
}

void Analyzer::BindLoopVars(const Stmt& stmt, const AbstractValue& elem,
                            Ctx& ctx) {
  if (stmt.loop_vars.size() == 1) {
    (*ctx.scopes.back())[stmt.loop_vars[0]] = elem;
    return;
  }
  // Unpacking (`for k, v in items(d)`): bind each var to the tuple-list's
  // joined element, or Any.
  AbstractValue each = AbstractValue::MakeAny();
  if (elem.object != kNoHeapId) {
    const AbstractObject* obj = heap_.Get(elem.object);
    if (obj != nullptr && obj->is_list) {
      each = obj->element;
    }
  }
  each.origins.insert(elem.origins.begin(), elem.origins.end());
  for (const std::string& var : stmt.loop_vars) {
    (*ctx.scopes.back())[var] = each;
  }
}

void Analyzer::ExecLoop(const Stmt& stmt, Ctx& ctx) {
  bool is_for = stmt.kind == Stmt::Kind::kFor;
  AbstractValue elem = AbstractValue::MakeAny();
  bool definitely_runs = false;
  if (is_for) {
    AbstractValue iterable = Eval(*stmt.value, ctx);
    elem = AbstractValue::MakeAny();
    if (!iterable.any) {
      if (iterable.only(kAbsList) && iterable.object != kNoHeapId) {
        const AbstractObject* obj = heap_.Get(iterable.object);
        if (obj != nullptr) {
          elem = obj->element;
          definitely_runs = obj->definitely_nonempty;
        }
      } else if (iterable.only(kAbsDict) && iterable.object != kNoHeapId) {
        const AbstractObject* obj = heap_.Get(iterable.object);
        elem = AbstractValue::OfKinds(kAbsString);
        if (obj != nullptr && obj->fields_known) {
          AbstractValue keys = AbstractValue::Bottom();
          bool all_present = true;
          for (const auto& [name, field] : obj->fields) {
            keys = JoinValues(&heap_, keys,
                              AbstractValue::OfConstant(Value::Str(name)));
            all_present = all_present && !field.maybe_absent;
          }
          if (!obj->fields.empty()) {
            elem = keys;
            definitely_runs = all_present;
          }
        }
      } else if (iterable.only(kAbsString)) {
        elem = AbstractValue::OfKinds(kAbsString);
      }
    }
    elem.origins.insert(iterable.origins.begin(), iterable.origins.end());
  } else {
    AbstractValue cond = Eval(*stmt.target, ctx);
    if (TruthyWithHeap(cond) == std::optional<bool>(false)) {
      return;  // Never entered.
    }
  }

  StateSnapshot pre = Snapshot(ctx);
  // Two abstract iterations discover repeated-execution effects; widening
  // then erases whatever failed to stabilize (counters, accumulating
  // constants), guaranteeing a sound fixpoint without iterating further.
  BindLoopVars(stmt, elem, ctx);
  if (!is_for) {
    Eval(*stmt.target, ctx);
  }
  ExecBlock(stmt.body, ctx);
  StateSnapshot once = Snapshot(ctx);
  BindLoopVars(stmt, elem, ctx);
  if (!is_for) {
    Eval(*stmt.target, ctx);
  }
  ExecBlock(stmt.body, ctx);
  WidenAgainst(once, ctx);
  if (!definitely_runs || !is_for) {
    JoinState(pre, ctx);  // The loop may run zero times.
  }
}

void Analyzer::AssignTo(const Expr& target, AbstractValue value, Ctx& ctx) {
  for (const auto& origin : ctx.control_origins) {
    value.origins.insert(origin);
  }
  switch (target.kind) {
    case Expr::Kind::kName:
      (*ctx.scopes.back())[target.name] = std::move(value);
      return;
    case Expr::Kind::kAttr: {
      AbstractValue base = Eval(*target.lhs, ctx);
      AbstractObject* obj =
          base.object != kNoHeapId ? heap_.Get(base.object) : nullptr;
      if (obj != nullptr && !obj->is_list) {
        obj->fields[target.name] = AbstractField{std::move(value), false};
      }
      return;
    }
    case Expr::Kind::kIndex: {
      AbstractValue base = Eval(*target.lhs, ctx);
      AbstractValue key = Eval(*target.rhs, ctx);
      AbstractObject* obj =
          base.object != kNoHeapId ? heap_.Get(base.object) : nullptr;
      if (obj == nullptr) {
        return;
      }
      if (obj->is_list) {
        obj->element = JoinValues(&heap_, obj->element, value);
        return;
      }
      if (key.constant.has_value() && key.constant->is_string()) {
        obj->fields[key.constant->as_string()] =
            AbstractField{std::move(value), false};
        return;
      }
      // Unknown key: any existing field may have been overwritten. Facts
      // about them are no longer trustworthy — erase rather than risk a
      // false positive.
      for (auto& [name, field] : obj->fields) {
        AbstractValue weakened = AbstractValue::MakeAny();
        weakened.origins = field.value.origins;
        field.value = std::move(weakened);
      }
      obj->fields_known = false;
      return;
    }
    default:
      return;
  }
}

// -- expressions --

AbstractValue Analyzer::LookupName(const std::string& name, Ctx& ctx) {
  for (auto it = ctx.scopes.rbegin(); it != ctx.scopes.rend(); ++it) {
    auto found = (*it)->find(name);
    if (found != (*it)->end()) {
      return found->second;
    }
  }
  auto schema_it = schema_env_.find(name);
  if (schema_it != schema_env_.end()) {
    return schema_it->second;
  }
  // A registered builtin function; any other name resolves to Any and
  // stays silent.
  if (SharedBuiltinsEnvironment()->vars().count(name) > 0) {
    auto fn = std::make_shared<AbstractFunction>();
    fn->builtin = name;
    AbstractValue v = AbstractValue::OfKinds(kAbsFunction);
    v.function = std::move(fn);
    return v;
  }
  return AbstractValue::MakeAny();  // L001's business, not ours.
}

std::optional<bool> Analyzer::TruthyWithHeap(const AbstractValue& v) const {
  std::optional<bool> scalar = v.TruthyIfKnown();
  if (scalar.has_value()) {
    return scalar;
  }
  if (!v.any && v.object != kNoHeapId && v.only(kAbsList | kAbsDict)) {
    const AbstractObject* obj = heap_.Get(v.object);
    if (obj != nullptr) {
      if (obj->definitely_nonempty) {
        return true;
      }
      if (!obj->is_list) {
        for (const auto& [name, field] : obj->fields) {
          if (!field.maybe_absent) {
            return true;
          }
        }
        if (obj->fields.empty() && obj->fields_known) {
          return false;
        }
      }
    }
  }
  return std::nullopt;
}

void Analyzer::RecordReads(const AbstractValue& v) {
  for (const auto& [module, symbol] : v.origins) {
    reads_[module].insert(symbol);
  }
}

bool Analyzer::OutOfStack() {
  // The stack grows down from stack_base_.
  if (stack_base_ - reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <=
      kMaxAnalysisStackBytes) {
    return false;
  }
  slice_sound_ = false;
  return true;
}

AbstractValue Analyzer::Eval(const Expr& expr, Ctx& ctx) {
  // Every recursion of the analysis passes through here. Giving up to Any
  // fires no rule, and the unsound slice keeps pruning and no-op
  // certificates from resting on the result.
  if (OutOfStack()) {
    return AbstractValue::MakeAny();
  }
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return AbstractValue::OfConstant(expr.literal);
    case Expr::Kind::kName: {
      AbstractValue v = LookupName(expr.name, ctx);
      RecordReads(v);
      return v;
    }
    case Expr::Kind::kList: {
      AbstractObject obj;
      obj.is_list = true;
      obj.definitely_nonempty = !expr.items.empty();
      for (const ExprPtr& item : expr.items) {
        obj.element = JoinValues(&heap_, obj.element, Eval(*item, ctx));
      }
      AbstractValue v = AbstractValue::OfKinds(kAbsList);
      v.object = heap_.Alloc(std::move(obj));
      return v;
    }
    case Expr::Kind::kDict: {
      AbstractObject obj;
      for (const auto& [key_expr, value_expr] : expr.pairs) {
        AbstractValue key = Eval(*key_expr, ctx);
        AbstractValue value = Eval(*value_expr, ctx);
        if (key.constant.has_value() && key.constant->is_string()) {
          obj.fields[key.constant->as_string()] =
              AbstractField{std::move(value), false};
        } else {
          obj.fields_known = false;
        }
      }
      AbstractValue v = AbstractValue::OfKinds(kAbsDict);
      v.object = heap_.Alloc(std::move(obj));
      return v;
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, ctx);
    case Expr::Kind::kUnary: {
      AbstractValue operand = Eval(*expr.lhs, ctx);
      if (expr.name == "not") {
        AbstractValue v = AbstractValue::OfKinds(kAbsBool);
        std::optional<bool> truthy = TruthyWithHeap(operand);
        if (truthy.has_value()) {
          v.constant = Value::Bool(!*truthy);
        }
        v.origins = operand.origins;
        return v;
      }
      if (expr.name == "-") {
        if (operand.only(kAbsInt)) {
          AbstractValue v = AbstractValue::OfKinds(kAbsInt);
          std::optional<int64_t> negated =
              operand.constant.has_value() && operand.constant->is_int()
                  ? BoundArithmetic(BinOp::kSub, 0, operand.constant->as_int())
                  : std::nullopt;
          if (negated.has_value()) {
            v = AbstractValue::OfConstant(Value::Int(*negated));
          } else {
            v.int_min = BoundArithmetic(BinOp::kSub, 0, operand.int_max);
            v.int_max = BoundArithmetic(BinOp::kSub, 0, operand.int_min);
          }
          v.origins = operand.origins;
          return v;
        }
        if (operand.only(kAbsInt | kAbsDouble)) {
          AbstractValue v = AbstractValue::OfKinds(operand.kinds);
          v.origins = operand.origins;
          return v;
        }
      }
      AbstractValue v = AbstractValue::MakeAny();
      v.origins = operand.origins;
      return v;
    }
    case Expr::Kind::kTernary: {
      AbstractValue cond = Eval(*expr.rhs, ctx);
      AbstractValue a = Eval(*expr.lhs, ctx);
      AbstractValue b = Eval(*expr.third, ctx);
      std::optional<bool> known = TruthyWithHeap(cond);
      AbstractValue out = known.has_value() ? (*known ? a : b)
                                            : JoinValues(&heap_, a, b);
      out.origins.insert(cond.origins.begin(), cond.origins.end());
      return out;
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, ctx);
    case Expr::Kind::kAttr: {
      AbstractValue base = Eval(*expr.lhs, ctx);
      if (base.object != kNoHeapId) {
        const AbstractObject* obj = heap_.Get(base.object);
        if (obj != nullptr && !obj->is_list) {
          auto it = obj->fields.find(expr.name);
          if (it != obj->fields.end()) {
            AbstractValue v = it->second.value;
            v.origins.insert(base.origins.begin(), base.origins.end());
            return v;
          }
        }
      }
      AbstractValue v = AbstractValue::MakeAny();
      v.origins = base.origins;
      return v;
    }
    case Expr::Kind::kIndex: {
      AbstractValue base = Eval(*expr.lhs, ctx);
      AbstractValue key = Eval(*expr.rhs, ctx);
      AbstractValue out = AbstractValue::MakeAny();
      if (base.object != kNoHeapId) {
        const AbstractObject* obj = heap_.Get(base.object);
        if (obj != nullptr) {
          if (obj->is_list) {
            out = obj->element;
          } else if (key.constant.has_value() && key.constant->is_string()) {
            auto it = obj->fields.find(key.constant->as_string());
            if (it != obj->fields.end()) {
              out = it->second.value;
            }
          }
        }
      } else if (base.only(kAbsString)) {
        out = AbstractValue::OfKinds(kAbsString);
      }
      out.origins.insert(base.origins.begin(), base.origins.end());
      out.origins.insert(key.origins.begin(), key.origins.end());
      return out;
    }
  }
  return AbstractValue::MakeAny();
}

AbstractValue Analyzer::EvalBinary(const Expr& expr, Ctx& ctx) {
  const std::string& op = expr.name;
  // Both operands always evaluate abstractly (even short-circuit ones):
  // over-recording reads keeps the dependency slice sound.
  AbstractValue lhs = Eval(*expr.lhs, ctx);
  AbstractValue rhs = Eval(*expr.rhs, ctx);
  if (op == "and" || op == "or") {
    std::optional<bool> truthy = TruthyWithHeap(lhs);
    AbstractValue out;
    if (truthy.has_value()) {
      // Python returns the deciding operand.
      bool take_lhs = (op == "and") ? !*truthy : *truthy;
      out = take_lhs ? lhs : rhs;
    } else {
      out = JoinValues(&heap_, lhs, rhs);
    }
    out.origins.insert(lhs.origins.begin(), lhs.origins.end());
    out.origins.insert(rhs.origins.begin(), rhs.origins.end());
    return out;
  }
  return EvalBinaryAbstract(op, lhs, rhs);
}

AbstractValue Analyzer::EvalBinaryAbstract(const std::string& op,
                                           const AbstractValue& lhs,
                                           const AbstractValue& rhs) {
  auto with_origins = [&](AbstractValue v) {
    v.origins.insert(lhs.origins.begin(), lhs.origins.end());
    v.origins.insert(rhs.origins.begin(), rhs.origins.end());
    return v;
  };
  bool both_const = lhs.constant.has_value() && rhs.constant.has_value();
  if (op == "==" || op == "!=") {
    AbstractValue v = AbstractValue::OfKinds(kAbsBool);
    if (both_const) {
      bool eq = lhs.constant->Equals(*rhs.constant).value_or(false);
      v.constant = Value::Bool(op == "==" ? eq : !eq);
    }
    return with_origins(std::move(v));
  }
  if (op == "<" || op == "<=" || op == ">" || op == ">=") {
    AbstractValue v = AbstractValue::OfKinds(kAbsBool);
    if (both_const) {
      const Value& a = *lhs.constant;
      const Value& b = *rhs.constant;
      std::optional<int> cmp;
      if (a.is_number() && b.is_number()) {
        double x = a.as_double();
        double y = b.as_double();
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      } else if (a.is_string() && b.is_string()) {
        int c = a.as_string().compare(b.as_string());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      if (cmp.has_value()) {
        bool result = op == "<"    ? *cmp < 0
                      : op == "<=" ? *cmp <= 0
                      : op == ">"  ? *cmp > 0
                                   : *cmp >= 0;
        v.constant = Value::Bool(result);
      }
    }
    return with_origins(std::move(v));
  }
  if (op == "in" || op == "not in") {
    return with_origins(AbstractValue::OfKinds(kAbsBool));
  }
  if (op == "+") {
    if (lhs.only(kAbsInt) && rhs.only(kAbsInt)) {
      if (both_const) {
        Result<Value> sum = IntArithmetic(BinOp::kAdd, lhs.constant->as_int(),
                                          rhs.constant->as_int());
        if (sum.ok()) {
          return with_origins(AbstractValue::OfConstant(*sum));
        }
      }
      AbstractValue v = AbstractValue::OfKinds(kAbsInt);
      v.int_min = BoundArithmetic(BinOp::kAdd, lhs.int_min, rhs.int_min);
      v.int_max = BoundArithmetic(BinOp::kAdd, lhs.int_max, rhs.int_max);
      return with_origins(std::move(v));
    }
    if (lhs.only(kAbsString) && rhs.only(kAbsString)) {
      if (both_const) {
        return with_origins(AbstractValue::OfConstant(Value::Str(
            lhs.constant->as_string() + rhs.constant->as_string())));
      }
      return with_origins(AbstractValue::OfKinds(kAbsString));
    }
    if (lhs.only(kAbsInt | kAbsDouble) && rhs.only(kAbsInt | kAbsDouble)) {
      // Double if either side definitely is; otherwise it depends.
      return with_origins(AbstractValue::OfKinds(
          (lhs.only(kAbsDouble) || rhs.only(kAbsDouble))
              ? kAbsDouble
              : (kAbsInt | kAbsDouble)));
    }
    if (lhs.only(kAbsList) && rhs.only(kAbsList)) {
      AbstractObject obj;
      obj.is_list = true;
      const AbstractObject* a =
          lhs.object != kNoHeapId ? heap_.Get(lhs.object) : nullptr;
      const AbstractObject* b =
          rhs.object != kNoHeapId ? heap_.Get(rhs.object) : nullptr;
      if (a != nullptr) {
        obj.element = JoinValues(&heap_, obj.element, a->element);
        obj.definitely_nonempty |= a->definitely_nonempty;
      }
      if (b != nullptr) {
        obj.element = JoinValues(&heap_, obj.element, b->element);
        obj.definitely_nonempty |= b->definitely_nonempty;
      }
      AbstractValue v = AbstractValue::OfKinds(kAbsList);
      v.object = heap_.Alloc(std::move(obj));
      return with_origins(std::move(v));
    }
    return with_origins(AbstractValue::MakeAny());
  }
  if (op == "-" || op == "*" || op == "/" || op == "//" || op == "%") {
    if (op == "*" && lhs.only(kAbsString) && rhs.only(kAbsInt)) {
      return with_origins(AbstractValue::OfKinds(kAbsString));
    }
    if (lhs.only(kAbsInt) && rhs.only(kAbsInt)) {
      if (op == "/") {
        return with_origins(AbstractValue::OfKinds(kAbsDouble));
      }
      if (both_const) {
        // The interpreter's own arithmetic: no constant where it fails.
        Result<Value> folded = IntArithmetic(
            *ParseBinOp(op), lhs.constant->as_int(), rhs.constant->as_int());
        if (folded.ok()) {
          return with_origins(AbstractValue::OfConstant(*folded));
        }
      }
      AbstractValue v = AbstractValue::OfKinds(kAbsInt);
      if (op == "-") {
        v.int_min = BoundArithmetic(BinOp::kSub, lhs.int_min, rhs.int_max);
        v.int_max = BoundArithmetic(BinOp::kSub, lhs.int_max, rhs.int_min);
      }
      return with_origins(std::move(v));
    }
    if (lhs.only(kAbsInt | kAbsDouble) && rhs.only(kAbsInt | kAbsDouble)) {
      if (op == "/") {
        return with_origins(AbstractValue::OfKinds(kAbsDouble));
      }
      return with_origins(AbstractValue::OfKinds(
          (lhs.only(kAbsDouble) || rhs.only(kAbsDouble))
              ? kAbsDouble
              : (kAbsInt | kAbsDouble)));
    }
    return with_origins(AbstractValue::MakeAny());
  }
  return with_origins(AbstractValue::MakeAny());
}

// -- calls --

AbstractValue Analyzer::EvalCall(const Expr& expr, Ctx& ctx) {
  // Special forms, mirroring the interpreter (src/lang/interp.cc EvalCall).
  if (expr.lhs->kind == Expr::Kind::kName) {
    const std::string& name = expr.lhs->name;
    if (name == "import_python" || name == "import_thrift") {
      HandleImport(expr, ctx);
      return AbstractValue::OfConstant(Value::Null());
    }
    if (name == "export" || name == "export_if_last") {
      RecordExport(expr, name == "export_if_last", ctx);
      return AbstractValue::OfConstant(Value::Null());
    }
  }

  AbstractValue callee = Eval(*expr.lhs, ctx);
  std::vector<AbstractValue> args;
  args.reserve(expr.items.size());
  for (const ExprPtr& arg : expr.items) {
    args.push_back(Eval(*arg, ctx));
  }
  std::map<std::string, AbstractValue> kwargs;
  for (const auto& [kw, arg_expr] : expr.kwargs) {
    kwargs[kw] = Eval(*arg_expr, ctx);
  }

  AbstractValue out = AbstractValue::MakeAny();
  if (callee.function != nullptr) {
    const AbstractFunction& fn = *callee.function;
    if (!fn.struct_ctor.empty()) {
      out = CallStructCtor(fn.struct_ctor, expr.line, kwargs, ctx);
    } else if (!fn.builtin.empty()) {
      out = CallBuiltin(fn.builtin, args, ctx);
    } else if (fn.def != nullptr) {
      out = CallFunction(fn, std::move(args), std::move(kwargs), ctx);
    }
  }
  out.origins.insert(callee.origins.begin(), callee.origins.end());
  return out;
}

AbstractValue Analyzer::CallFunction(const AbstractFunction& fn,
                                     std::vector<AbstractValue> args,
                                     std::map<std::string, AbstractValue> kwargs,
                                     Ctx& ctx) {
  if (call_stack_.size() >= 16 ||
      std::find(call_stack_.begin(), call_stack_.end(), fn.def) !=
          call_stack_.end()) {
    return AbstractValue::MakeAny();  // Recursion / depth cap: give up.
  }
  call_stack_.push_back(fn.def);

  Ctx inner;
  inner.file = fn.file.empty() ? ctx.file : fn.file;
  inner.scopes.push_back(fn.env != nullptr ? fn.env : ctx.scopes.front());
  inner.scopes.push_back(std::make_shared<Bindings>());
  inner.exports_enabled = ctx.exports_enabled;
  inner.control_origins = ctx.control_origins;
  AbstractValue return_join = AbstractValue::Bottom();
  inner.return_join = &return_join;

  Bindings& locals = *inner.scopes.back();
  const FunctionDefStmt& def = *fn.def;
  for (size_t i = 0; i < def.params.size(); ++i) {
    if (i < args.size()) {
      locals[def.params[i]] = std::move(args[i]);
    } else if (auto it = kwargs.find(def.params[i]); it != kwargs.end()) {
      locals[def.params[i]] = std::move(it->second);
    } else if (i < def.defaults.size() && def.defaults[i] != nullptr) {
      locals[def.params[i]] = Eval(*def.defaults[i], inner);
    } else {
      locals[def.params[i]] = AbstractValue::MakeAny();
    }
  }

  bool falls_through = ExecBlock(def.body, inner);
  call_stack_.pop_back();
  if (falls_through) {
    return_join = JoinValues(&heap_, return_join,
                             AbstractValue::OfConstant(Value::Null()));
  }
  if (return_join.is_bottom()) {
    return AbstractValue::MakeAny();
  }
  return return_join;
}

AbstractValue Analyzer::CallStructCtor(
    const std::string& struct_name, int line,
    const std::map<std::string, AbstractValue>& kwargs, Ctx& ctx) {
  const StructDef* def = registry_.FindStruct(struct_name);
  AbstractObject obj;
  obj.struct_names.insert(struct_name);
  for (const auto& [kw, value] : kwargs) {
    if (def != nullptr && def->FindField(kw) == nullptr) {
      LintDiagnostic d;
      d.rule_id = "T011";
      d.severity = LintSeverity::kError;
      d.file = ctx.file;
      d.line = line;
      d.message = StrFormat("%s has no field named '%s'", struct_name.c_str(),
                            kw.c_str());
      d.suggestion = "check the field name against the schema";
      diags_.push_back(std::move(d));
    }
    obj.fields[kw] = AbstractField{value, false};
  }
  AbstractValue v = AbstractValue::OfKinds(kAbsDict);
  v.object = heap_.Alloc(std::move(obj));
  return v;
}

AbstractValue Analyzer::CallBuiltin(const std::string& name,
                                    std::vector<AbstractValue>& args,
                                    Ctx& ctx) {
  auto arg_origins = [&](AbstractValue v) {
    for (const AbstractValue& a : args) {
      v.origins.insert(a.origins.begin(), a.origins.end());
    }
    return v;
  };
  auto arg_object = [&](size_t i) -> AbstractObject* {
    if (i >= args.size() || args[i].object == kNoHeapId) {
      return nullptr;
    }
    return heap_.Get(args[i].object);
  };

  if (name == "len") {
    AbstractValue v = AbstractValue::OfKinds(kAbsInt);
    v.int_min = 0;
    return arg_origins(std::move(v));
  }
  if (name == "str" || name == "join" || name == "format" || name == "upper" ||
      name == "lower" || name == "strip" || name == "replace") {
    return arg_origins(AbstractValue::OfKinds(kAbsString));
  }
  if (name == "int") {
    AbstractValue v = AbstractValue::OfKinds(kAbsInt);
    if (!args.empty() && args[0].constant.has_value()) {
      const Value& c = *args[0].constant;
      if (c.is_int()) {
        v = AbstractValue::OfConstant(c);
      } else if (c.is_bool()) {
        v = AbstractValue::OfConstant(Value::Int(c.as_bool() ? 1 : 0));
      } else if (c.is_double() && c.as_double() >= -0x1p63 &&
                 c.as_double() < 0x1p63) {
        v = AbstractValue::OfConstant(
            Value::Int(static_cast<int64_t>(c.as_double())));
      }
    }
    return arg_origins(std::move(v));
  }
  if (name == "float") {
    return arg_origins(AbstractValue::OfKinds(kAbsDouble));
  }
  if (name == "abs") {
    if (!args.empty() && args[0].only(kAbsInt)) {
      AbstractValue v = AbstractValue::OfKinds(kAbsInt);
      v.int_min = 0;
      return arg_origins(std::move(v));
    }
    return arg_origins(AbstractValue::OfKinds(kAbsInt | kAbsDouble));
  }
  if (name == "startswith" || name == "endswith" || name == "has_key") {
    return arg_origins(AbstractValue::OfKinds(kAbsBool));
  }
  if (name == "range") {
    AbstractObject obj;
    obj.is_list = true;
    AbstractValue elem = AbstractValue::OfKinds(kAbsInt);
    if (args.size() == 1 && args[0].constant.has_value() &&
        args[0].constant->is_int()) {
      int64_t stop = args[0].constant->as_int();
      obj.definitely_nonempty = stop > 0;
      elem.int_min = 0;
      elem.int_max = BoundArithmetic(BinOp::kSub, stop, 1);
    } else if (args.size() >= 2 && args[0].constant.has_value() &&
               args[0].constant->is_int() && args[1].constant.has_value() &&
               args[1].constant->is_int() && args.size() == 2) {
      int64_t start = args[0].constant->as_int();
      int64_t stop = args[1].constant->as_int();
      obj.definitely_nonempty = start < stop;
      elem.int_min = start;
      elem.int_max = BoundArithmetic(BinOp::kSub, stop, 1);
    }
    obj.element = std::move(elem);
    AbstractValue v = AbstractValue::OfKinds(kAbsList);
    v.object = heap_.Alloc(std::move(obj));
    return arg_origins(std::move(v));
  }
  if (name == "sorted") {
    if (AbstractObject* src = arg_object(0); src != nullptr) {
      AbstractObject obj;
      obj.is_list = true;
      obj.element = src->element;
      obj.definitely_nonempty = src->definitely_nonempty;
      AbstractValue v = AbstractValue::OfKinds(kAbsList);
      v.object = heap_.Alloc(std::move(obj));
      return arg_origins(std::move(v));
    }
    return arg_origins(AbstractValue::OfKinds(kAbsList));
  }
  if (name == "min" || name == "max") {
    AbstractValue v = AbstractValue::Bottom();
    if (args.size() == 1 && args[0].only(kAbsList)) {
      if (AbstractObject* src = arg_object(0); src != nullptr) {
        v = src->element;
      } else {
        v = AbstractValue::MakeAny();
      }
    } else {
      for (const AbstractValue& a : args) {
        v = JoinValues(&heap_, v, a);
      }
    }
    if (v.is_bottom()) {
      v = AbstractValue::MakeAny();
    }
    return arg_origins(std::move(v));
  }
  if (name == "keys" || name == "values" || name == "items") {
    AbstractObject out;
    out.is_list = true;
    if (AbstractObject* src = arg_object(0); src != nullptr && !src->is_list) {
      AbstractValue keys = AbstractValue::OfKinds(kAbsString);
      AbstractValue vals = AbstractValue::Bottom();
      bool some_definite = false;
      for (const auto& [key, field] : src->fields) {
        vals = JoinValues(&heap_, vals, field.value);
        some_definite = some_definite || !field.maybe_absent;
      }
      if (vals.is_bottom()) {
        vals = AbstractValue::MakeAny();
      }
      out.definitely_nonempty = some_definite;
      if (name == "keys") {
        out.element = std::move(keys);
      } else if (name == "values") {
        out.element = std::move(vals);
      } else {
        AbstractObject pair;
        pair.is_list = true;
        pair.definitely_nonempty = true;
        pair.element = JoinValues(&heap_, keys, vals);
        AbstractValue pair_v = AbstractValue::OfKinds(kAbsList);
        pair_v.object = heap_.Alloc(std::move(pair));
        out.element = std::move(pair_v);
      }
    } else if (name == "keys") {
      out.element = AbstractValue::OfKinds(kAbsString);
    } else {
      out.element = AbstractValue::MakeAny();
    }
    AbstractValue v = AbstractValue::OfKinds(kAbsList);
    v.object = heap_.Alloc(std::move(out));
    return arg_origins(std::move(v));
  }
  if (name == "append") {
    if (AbstractObject* obj = arg_object(0);
        obj != nullptr && obj->is_list && args.size() >= 2) {
      obj->element = JoinValues(&heap_, obj->element, args[1]);
      // Guarded appends (inside a branch) can't prove nonemptiness: the
      // state join keeps the stronger claim when the same heap id appears
      // on both sides, so only claim it on straight-line code.
      if (ctx.control_origins.empty()) {
        obj->definitely_nonempty = true;
      }
    }
    return AbstractValue::OfConstant(Value::Null());
  }
  if (name == "extend") {
    AbstractObject* dst = arg_object(0);
    AbstractObject* src = arg_object(1);
    if (dst != nullptr && dst->is_list) {
      if (src != nullptr && src->is_list) {
        dst->element = JoinValues(&heap_, dst->element, src->element);
        if (ctx.control_origins.empty() && src->definitely_nonempty) {
          dst->definitely_nonempty = true;
        }
      } else if (args.size() >= 2) {
        dst->element = JoinValues(&heap_, dst->element,
                                  AbstractValue::MakeAny());
      }
    }
    return AbstractValue::OfConstant(Value::Null());
  }
  if (name == "get") {
    AbstractValue fallback = args.size() >= 3
                                 ? args[2]
                                 : AbstractValue::OfConstant(Value::Null());
    if (AbstractObject* obj = arg_object(0);
        obj != nullptr && !obj->is_list && args.size() >= 2 &&
        args[1].constant.has_value() && args[1].constant->is_string()) {
      auto it = obj->fields.find(args[1].constant->as_string());
      if (it == obj->fields.end()) {
        return arg_origins(obj->fields_known ? std::move(fallback)
                                             : AbstractValue::MakeAny());
      }
      if (!it->second.maybe_absent) {
        return arg_origins(it->second.value);
      }
      return arg_origins(JoinValues(&heap_, it->second.value, fallback));
    }
    return arg_origins(AbstractValue::MakeAny());
  }
  if (name == "split") {
    AbstractObject obj;
    obj.is_list = true;
    obj.definitely_nonempty = true;  // split() always yields >= 1 piece.
    obj.element = AbstractValue::OfKinds(kAbsString);
    AbstractValue v = AbstractValue::OfKinds(kAbsList);
    v.object = heap_.Alloc(std::move(obj));
    return arg_origins(std::move(v));
  }
  if (name == "merge") {
    if (args.size() >= 2) {
      return arg_origins(MergeDicts(args[0], args[1]));
    }
    return arg_origins(AbstractValue::MakeAny());
  }
  if (name == "fail") {
    return AbstractValue::Bottom();  // Never returns a value.
  }
  return arg_origins(AbstractValue::MakeAny());
}

AbstractValue Analyzer::MergeDicts(const AbstractValue& a,
                                   const AbstractValue& b) {
  if (++merge_depth_ > 16) {  // Self-referential dicts: stop unrolling.
    --merge_depth_;
    return AbstractValue::OfKinds(kAbsDict);
  }
  const AbstractObject* base =
      a.object != kNoHeapId ? heap_.Get(a.object) : nullptr;
  const AbstractObject* over =
      b.object != kNoHeapId ? heap_.Get(b.object) : nullptr;
  AbstractObject out;
  if (base != nullptr) {
    out.struct_names = base->struct_names;  // merge() keeps the base's tag.
  }
  if (base == nullptr || over == nullptr) {
    out.fields_known = false;
  } else {
    out.fields_known = base->fields_known && over->fields_known;
    out.fields = base->fields;
    for (const auto& [key, field] : over->fields) {
      auto it = out.fields.find(key);
      AbstractValue merged = field.value;
      if (it != out.fields.end() && it->second.value.only(kAbsDict) &&
          field.value.only(kAbsDict)) {
        merged = MergeDicts(it->second.value, field.value);
      }
      if (it == out.fields.end()) {
        out.fields[key] = AbstractField{std::move(merged), field.maybe_absent};
      } else if (field.maybe_absent) {
        out.fields[key] = AbstractField{
            JoinValues(&heap_, it->second.value, merged),
            it->second.maybe_absent};
      } else {
        out.fields[key] = AbstractField{std::move(merged), false};
      }
    }
  }
  AbstractValue v = AbstractValue::OfKinds(kAbsDict);
  v.object = heap_.Alloc(std::move(out));
  v.origins = a.origins;
  v.origins.insert(b.origins.begin(), b.origins.end());
  --merge_depth_;
  return v;
}

// -- cross-module: imports, schemas, validators --

void Analyzer::HandleImport(const Expr& expr, Ctx& ctx) {
  // Evaluate the arguments like the interpreter would (records reads made
  // while computing a dynamic path, even though we then give up on it).
  for (const ExprPtr& arg : expr.items) {
    Eval(*arg, ctx);
  }
  ImportTarget target = ClassifyImport(expr);
  switch (target.kind) {
    case ImportTarget::Kind::kDynamic:
      // Path or filter computed at evaluation time: the slice can't know
      // what this pulls in.
      slice_sound_ = false;
      return;
    case ImportTarget::Kind::kSchema:
      LoadSchema(target.path);
      return;
    case ImportTarget::Kind::kModule:
      break;
  }
  std::shared_ptr<Bindings> module = AnalyzeModule(target.path);
  if (module == nullptr) {
    slice_sound_ = false;
    return;
  }
  if (target.filter == "*") {
    // Star import: additions to the module's surface can shadow names here.
    reads_[target.path].insert("*");
  }
  for (const auto& [symbol, value] : *module) {
    if (target.filter != "*" && target.filter != symbol) {
      continue;
    }
    AbstractValue copied = value;
    copied.origins.insert({target.path, symbol});
    (*ctx.scopes.back())[symbol] = std::move(copied);
  }
}

std::shared_ptr<Bindings> Analyzer::AnalyzeModule(const std::string& path) {
  auto cached = module_cache_.find(path);
  if (cached != module_cache_.end()) {
    return cached->second;  // nullptr marks an import cycle (compiler errors).
  }
  if (visiting_.count(path) > 0 || !reader_) {
    return nullptr;
  }
  module_cache_[path] = nullptr;
  visiting_.insert(path);
  auto source = reader_(path);
  if (!source.ok()) {
    visiting_.erase(path);
    return nullptr;
  }
  auto module = units_.GetOrParse(path, *source);
  if (!module.ok()) {
    visiting_.erase(path);
    return nullptr;
  }
  modules_alive_.push_back(*module);
  auto globals = std::make_shared<Bindings>();
  Ctx ctx;
  ctx.file = path;
  ctx.scopes.push_back(globals);
  ctx.exports_enabled = false;
  ExecBlock((*module)->body, ctx);
  visiting_.erase(path);
  module_cache_[path] = globals;
  return globals;
}

void Analyzer::LoadSchema(const std::string& path) {
  if (!loaded_schemas_.insert(path).second) {
    return;
  }
  reads_[path].insert("*");  // Schema files diff at file granularity.
  if (!reader_) {
    slice_sound_ = false;
    return;
  }
  Status loaded = registry_.Load(path, [this](const std::string& file) {
    reads_[file].insert("*");
    return reader_(file);
  });
  if (!loaded.ok() && !reader_(path).ok()) {
    slice_sound_ = false;  // The imported schema itself is unreadable.
    return;
  }
  if (!loaded.ok() || !registry_.ResolveAll().ok()) {
    // Broken schema: the compiler reports it; degrade silently.
    return;
  }
  // Constructors and enum namespaces, like RegisterSchemaConstructors.
  for (const std::string& struct_name : registry_.StructNames()) {
    auto fn = std::make_shared<AbstractFunction>();
    fn->struct_ctor = struct_name;
    AbstractValue v = AbstractValue::OfKinds(kAbsFunction);
    v.function = std::move(fn);
    schema_env_[struct_name] = std::move(v);
  }
  for (const std::string& enum_name : registry_.EnumNames()) {
    const EnumDef* e = registry_.FindEnum(enum_name);
    AbstractObject ns;
    ns.struct_names.insert("enum " + enum_name);
    for (const auto& [value_name, value] : e->values) {
      ns.fields[value_name] =
          AbstractField{AbstractValue::OfConstant(Value::Int(value)), false};
    }
    ns.definitely_nonempty = !e->values.empty();
    AbstractValue v = AbstractValue::OfKinds(kAbsDict);
    v.object = heap_.Alloc(std::move(ns));
    schema_env_[enum_name] = std::move(v);
  }
  // Validator companion: its asserts bound field values (T013) and its
  // symbols are dependency edges.
  std::string validator_path = path + "-cvalidator";
  auto validator_source = reader_(validator_path);
  if (validator_source.ok()) {
    reads_[validator_path].insert("*");
    MineValidatorBounds(validator_path, *validator_source);
  }
}

namespace bound_mining {

// Collects `cfg.field OP literal` constraints from an assert condition,
// recursing through `and` conjunctions.
void MineCondition(const Expr& cond, const std::string& param,
                   std::map<std::string, FieldBounds>* bounds) {
  if (cond.kind != Expr::Kind::kBinary) {
    return;
  }
  if (cond.name == "and") {
    MineCondition(*cond.lhs, param, bounds);
    MineCondition(*cond.rhs, param, bounds);
    return;
  }
  std::string op = cond.name;
  const Expr* attr = cond.lhs.get();
  const Expr* lit = cond.rhs.get();
  if (attr->kind == Expr::Kind::kLiteral && lit->kind == Expr::Kind::kAttr) {
    std::swap(attr, lit);  // `0 < cfg.f` is `cfg.f > 0`.
    if (op == "<") {
      op = ">";
    } else if (op == "<=") {
      op = ">=";
    } else if (op == ">") {
      op = "<";
    } else if (op == ">=") {
      op = "<=";
    }
  }
  if (attr->kind != Expr::Kind::kAttr || attr->lhs == nullptr ||
      attr->lhs->kind != Expr::Kind::kName || attr->lhs->name != param ||
      lit->kind != Expr::Kind::kLiteral || !lit->literal.is_int()) {
    return;
  }
  int64_t v = lit->literal.as_int();
  FieldBounds& fb = (*bounds)[attr->name];
  if (op == ">") {
    fb.min = std::max(fb.min.value_or(v + 1), v + 1);
  } else if (op == ">=") {
    fb.min = std::max(fb.min.value_or(v), v);
  } else if (op == "<") {
    fb.max = std::min(fb.max.value_or(v - 1), v - 1);
  } else if (op == "<=") {
    fb.max = std::min(fb.max.value_or(v), v);
  }
}

}  // namespace bound_mining

void Analyzer::MineValidatorBounds(const std::string& validator_path,
                                   const std::string& source) {
  auto module = units_.GetOrParse(validator_path, source);
  if (!module.ok()) {
    return;
  }
  for (const StmtPtr& stmt : (*module)->body) {
    if (stmt->kind != Stmt::Kind::kDef ||
        !stmt->def->name.starts_with("validate_") ||
        stmt->def->params.size() != 1) {
      continue;
    }
    std::string struct_name = stmt->def->name.substr(strlen("validate_"));
    reads_[validator_path].insert(stmt->def->name);
    const std::string& param = stmt->def->params[0];
    for (const StmtPtr& body_stmt : stmt->def->body) {
      if (body_stmt->kind == Stmt::Kind::kAssert) {
        bound_mining::MineCondition(*body_stmt->target, param,
                                    &validator_bounds_[struct_name]);
      }
    }
  }
}

// -- exports and results --

void Analyzer::RecordExport(const Expr& expr, bool if_last, Ctx& ctx) {
  std::string out_path;
  const Expr* value_expr = nullptr;
  if (if_last) {
    out_path = ConfigCompiler::OutputPathFor(entry_path_);
    if (expr.items.size() == 1) {
      value_expr = expr.items[0].get();
    }
  } else if (expr.items.size() == 2) {
    AbstractValue name = Eval(*expr.items[0], ctx);
    out_path = name.constant.has_value() && name.constant->is_string()
                   ? name.constant->as_string()
                   : StrFormat("<dynamic:%d>", expr.line);
    value_expr = expr.items[1].get();
  }
  if (value_expr == nullptr) {
    return;  // Arity error: the compiler reports it.
  }
  AbstractValue value = Eval(*value_expr, ctx);
  if (!ctx.exports_enabled) {
    return;
  }
  ExportRec rec;
  rec.path = std::move(out_path);
  rec.line = expr.line;
  rec.value = std::move(value);
  rec.control_origins = ctx.control_origins;
  exports_.push_back(std::move(rec));
}

void Analyzer::CollectOrigins(const AbstractValue& v, std::set<HeapId>& seen,
                              OriginSet& out) const {
  out.insert(v.origins.begin(), v.origins.end());
  if (v.object == kNoHeapId || !seen.insert(v.object).second) {
    return;
  }
  const AbstractObject* obj = heap_.Get(v.object);
  if (obj == nullptr) {
    return;
  }
  CollectOrigins(obj->element, seen, out);
  for (const auto& [name, field] : obj->fields) {
    CollectOrigins(field.value, seen, out);
  }
}

std::string Analyzer::RenderAbstract(const AbstractValue& v,
                                     std::set<HeapId>& seen,
                                     bool* precise) const {
  if (v.any) {
    *precise = false;
    return "?";
  }
  if (v.kinds == 0) {
    *precise = false;
    return "<unreachable>";
  }
  if (v.constant.has_value()) {
    return v.constant->ToDebugString();
  }
  if (v.only(kAbsNull)) {
    return "None";
  }
  if (v.only(kAbsFunction)) {
    // Identity-comparable only via the surface fingerprint, never the
    // summary; render enough to be stable, but never "precise".
    *precise = false;
    if (v.function != nullptr && !v.function->builtin.empty()) {
      return "builtin:" + v.function->builtin;
    }
    if (v.function != nullptr && !v.function->struct_ctor.empty()) {
      return "ctor:" + v.function->struct_ctor;
    }
    if (v.function != nullptr && v.function->def != nullptr) {
      return "fn:" + v.function->def->name;
    }
    return "fn:?";
  }
  if (v.object != kNoHeapId && v.only(kAbsDict | kAbsList)) {
    if (!seen.insert(v.object).second) {
      *precise = false;  // Cyclic structure.
      return "<cycle>";
    }
    const AbstractObject* obj = heap_.Get(v.object);
    if (obj == nullptr) {
      *precise = false;
      return "?";
    }
    if (obj->is_list) {
      // Element joins lose order and multiplicity: never precise.
      *precise = false;
      std::string out = "[";
      out += RenderAbstract(obj->element, seen, precise);
      out += obj->definitely_nonempty ? " x1+]" : " x0+]";
      return out;
    }
    std::string out = "{";
    if (!obj->struct_names.empty()) {
      for (const std::string& name : obj->struct_names) {
        out += name + "|";
      }
    }
    if (obj->struct_names.size() > 1) {
      *precise = false;  // Branch-dependent type tag.
    }
    for (const auto& [name, field] : obj->fields) {
      out += name;
      if (field.maybe_absent) {
        out += "?";
        *precise = false;
      }
      out += "=";
      out += RenderAbstract(field.value, seen, precise);
      out += ",";
    }
    if (!obj->fields_known) {
      out += "...";
      *precise = false;
    }
    out += "}";
    return out;
  }
  // A kind set without a known constant: real information (the type rules
  // use it), but many concrete values satisfy it.
  *precise = false;
  std::string out = v.Describe();
  if (v.only(kAbsInt) && (v.int_min.has_value() || v.int_max.has_value())) {
    out += "[";
    out += v.int_min.has_value() ? std::to_string(*v.int_min) : "";
    out += "..";
    out += v.int_max.has_value() ? std::to_string(*v.int_max) : "";
    out += "]";
  }
  return out;
}

SymbolSummary Analyzer::Summarize(const AbstractValue& v) const {
  SymbolSummary s;
  s.kinds = v.kinds;
  s.any = v.any;
  s.precise = true;
  std::set<HeapId> render_seen;
  s.digest = RenderAbstract(v, render_seen, &s.precise);
  constexpr size_t kBriefCap = 64;
  s.brief = s.digest.size() <= kBriefCap
                ? s.digest
                : s.digest.substr(0, kBriefCap - 3) + "...";
  if (v.object != kNoHeapId) {
    const AbstractObject* obj = heap_.Get(v.object);
    if (obj != nullptr && obj->struct_names.size() == 1) {
      s.type_name = *obj->struct_names.begin();
    }
  }
  OriginSet origins;
  std::set<HeapId> seen;
  CollectOrigins(v, seen, origins);
  for (const auto& [module_path, symbol] : origins) {
    s.deps[module_path].insert(symbol);
  }
  return s;
}

// Flattens an exported abstract value into dot-path facts that outlive the
// heap. Lists are not descended into (invariants address dict fields and
// scalar roots); depth and entry caps bound pathological nesting.
void Analyzer::FlattenFields(const AbstractValue& v, const std::string& prefix,
                             bool maybe_absent, int depth,
                             std::set<HeapId>& seen,
                             AbstractFieldMap* out) const {
  constexpr int kMaxDepth = 6;
  constexpr size_t kMaxEntries = 256;
  if (out->size() >= kMaxEntries) {
    return;
  }
  AbstractFieldFacts& facts = (*out)[prefix];
  facts.kinds = v.kinds;
  facts.any = v.any;
  facts.constant = v.constant;
  facts.int_min = v.int_min;
  facts.int_max = v.int_max;
  facts.maybe_absent = maybe_absent;
  if (v.object == kNoHeapId || depth >= kMaxDepth ||
      !seen.insert(v.object).second) {
    return;
  }
  const AbstractObject* obj = heap_.Get(v.object);
  if (obj == nullptr || obj->is_list) {
    return;
  }
  for (const auto& [name, field] : obj->fields) {
    std::string child = prefix.empty() ? name : prefix + "." + name;
    FlattenFields(field.value, child, maybe_absent || field.maybe_absent,
                  depth + 1, seen, out);
  }
}

AbsintResult Analyzer::Run(const std::string& path,
                           const std::string& content) {
  AbsintResult result;
  entry_path_ = path;
  stack_base_ = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  auto module = units_.GetOrParse(path, content);
  if (!module.ok()) {
    result.slice_sound = false;
    return result;  // analyzed = false: the compiler reports parse errors.
  }
  result.analyzed = true;
  modules_alive_.push_back(*module);

  auto globals = std::make_shared<Bindings>();
  module_cache_[path] = globals;  // Self-import resolves, as in the compiler.
  Ctx ctx;
  ctx.file = path;
  ctx.scopes.push_back(globals);
  ctx.exports_enabled = path.ends_with(".cconf");
  ExecBlock((*module)->body, ctx);

  // Check each export against its schema on the final state — the compiler
  // type-checks at session end, after any post-export mutations.
  for (const ExportRec& rec : exports_) {
    std::string struct_name;
    if (rec.value.object != kNoHeapId) {
      const AbstractObject* obj = heap_.Get(rec.value.object);
      if (obj != nullptr && obj->struct_names.size() == 1) {
        struct_name = *obj->struct_names.begin();
      }
    }
    if (struct_name.starts_with("enum ")) {
      struct_name.clear();  // The compiler skips enum-tagged exports.
    }
    RunTypeRules(registry_, validator_bounds_, heap_, path, rec.line, rec.path,
                 struct_name, rec.value, &diags_);

    ExportSlice slice;
    slice.path = rec.path;
    slice.type_name = struct_name;
    slice.line = rec.line;
    OriginSet origins;
    std::set<HeapId> seen;
    CollectOrigins(rec.value, seen, origins);
    for (const auto& [module_path, symbol] : rec.control_origins) {
      if (origins.count({module_path, symbol}) == 0) {
        slice.control_by_module[module_path].insert(symbol);
      }
    }
    origins.insert(rec.control_origins.begin(), rec.control_origins.end());
    for (const auto& [module_path, symbol] : origins) {
      slice.symbols_by_module[module_path].insert(symbol);
    }
    SymbolSummary value_summary = Summarize(rec.value);
    slice.value_digest = std::move(value_summary.digest);
    slice.value_brief = std::move(value_summary.brief);
    slice.value_precise = value_summary.precise;
    std::set<HeapId> flatten_seen;
    FlattenFields(rec.value, "", /*maybe_absent=*/false, /*depth=*/0,
                  flatten_seen, &slice.fields);
    result.exports.push_back(std::move(slice));
  }

  // Every surviving top-level binding, for the semantic differ.
  for (const auto& [name, value] : *globals) {
    result.symbol_summaries.emplace(name, Summarize(value));
  }

  for (const auto& [site, truths] : branch_truths_) {
    if (truths.size() == 1) {
      result.decided_branches.push_back(
          DecidedBranch{site.first, site.second, *truths.begin()});
    }
  }

  SortDiagnostics(&diags_);
  result.diagnostics = std::move(diags_);
  result.used_symbols = std::make_shared<const SymbolSlice>(std::move(reads_));
  result.slice_sound = slice_sound_;
  return result;
}

}  // namespace

const std::shared_ptr<const SymbolSlice>& EmptySymbolSlice() {
  static const auto* empty = new std::shared_ptr<const SymbolSlice>(
      std::make_shared<const SymbolSlice>());
  return *empty;
}

// ---- AbstractInterpreter ----------------------------------------------------

AbstractInterpreter::AbstractInterpreter(FileReader reader)
    : reader_(std::move(reader)),
      owned_units_(std::make_unique<CompiledUnitCache>()),
      units_(owned_units_.get()) {}

AbstractInterpreter::AbstractInterpreter(FileReader reader,
                                         CompiledUnitCache& units)
    : reader_(std::move(reader)), units_(&units) {}

AbsintResult AbstractInterpreter::Analyze(const std::string& path,
                                          const std::string& content) {
  if (!path.ends_with(".cconf") && !path.ends_with(".cinc")) {
    return AbsintResult{};  // Not CSL; nothing to analyze.
  }
  Analyzer analyzer(reader_, *units_);
  return analyzer.Run(path, content);
}

AbsintResult AbstractInterpreter::AnalyzePath(const std::string& path) {
  if (!reader_) {
    AbsintResult result;
    result.slice_sound = false;
    return result;
  }
  auto content = reader_(path);
  if (!content.ok()) {
    AbsintResult result;
    result.slice_sound = false;
    return result;
  }
  return Analyze(path, *content);
}

// ---- Symbol surfaces and diffing --------------------------------------------

namespace {

// One walk over a top-level statement. It yields the statement's structural
// dump (two statements with the same dump behave identically, so dumps
// double as fingerprints), the names it reads, its last line, whether it
// imports outside a function body and the names it assigns. Along the way
// it records the module-level bindings, signatures and imports into the
// surface.
class StmtScan {
 public:
  explicit StmtScan(ModuleSymbolSurface* surface) : surface_(surface) {}

  std::string dump;
  // Over-approximates: a function's local names count as reads too.
  // Spurious edges only widen invalidation, never narrow it.
  std::set<std::string> reads;
  int last_line = 0;
  bool has_import = false;  // An import call outside function bodies.
  // Names the statement assigns at module level, `X.y = v` counting as X.
  std::set<std::string> assigned;

  void Scan(const Stmt& stmt) { ScanStmt(stmt, /*module_level=*/true); }

 private:
  void ScanStmt(const Stmt& stmt, bool module_level) {
    last_line = std::max(last_line, stmt.line);
    dump.push_back('[');
    dump.append(std::to_string(static_cast<int>(stmt.kind)));
    if (!stmt.op.empty()) {
      dump.push_back(' ');
      dump.append(stmt.op);
    }
    for (const std::string& var : stmt.loop_vars) {
      dump.push_back(' ');
      dump.append(var);
    }
    if (module_level) {
      RecordBindings(stmt);
    }
    if (stmt.target != nullptr) {
      ScanExpr(*stmt.target, module_level);
    }
    if (stmt.value != nullptr) {
      ScanExpr(*stmt.value, module_level);
    }
    bool branches = module_level && stmt.kind == Stmt::Kind::kIf;
    for (const std::vector<StmtPtr>* block : {&stmt.body, &stmt.orelse}) {
      if (branches) {
        arms_.push_back(2 * stmt.line + (block == &stmt.orelse ? 1 : 0));
      }
      for (const StmtPtr& s : *block) {
        ScanStmt(*s, module_level);
      }
      if (branches) {
        arms_.pop_back();
      }
    }
    if (stmt.def != nullptr) {
      const FunctionDefStmt& def = *stmt.def;
      dump.append(def.name);
      for (size_t i = 0; i < def.params.size(); ++i) {
        dump.push_back(' ');
        dump.append(def.params[i]);
        if (i < def.defaults.size() && def.defaults[i] != nullptr) {
          dump.push_back('=');
          ScanExpr(*def.defaults[i], /*module_level=*/false);
        }
      }
      for (const StmtPtr& s : def.body) {
        ScanStmt(*s, /*module_level=*/false);
      }
    }
    dump.push_back(']');
  }

  void ScanExpr(const Expr& expr, bool module_level) {
    last_line = std::max(last_line, expr.line);
    has_import = has_import || (module_level && IsImportCall(expr));
    if (expr.kind == Expr::Kind::kName) {
      reads.insert(expr.name);
    }
    dump.push_back('(');
    dump.append(std::to_string(static_cast<int>(expr.kind)));
    if (expr.kind == Expr::Kind::kLiteral) {
      dump.push_back(' ');
      dump.append(expr.literal.ToDebugString());
    }
    if (!expr.name.empty()) {
      dump.push_back(' ');
      dump.append(expr.name);
    }
    for (const ExprPtr& item : expr.items) {
      ScanExpr(*item, module_level);
    }
    for (const auto& [key, value] : expr.pairs) {
      ScanExpr(*key, module_level);
      dump.push_back(':');
      ScanExpr(*value, module_level);
    }
    for (const auto& [kw, value] : expr.kwargs) {
      dump.append(kw);
      dump.push_back('=');
      ScanExpr(*value, module_level);
    }
    for (const Expr* child : {expr.lhs.get(), expr.rhs.get(), expr.third.get()}) {
      if (child != nullptr) {
        ScanExpr(*child, module_level);
      }
    }
    dump.push_back(')');
  }

  void RecordBindings(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kAugAssign: {
        const Expr* target = stmt.target.get();
        if (target->kind == Expr::Kind::kName) {
          surface_->binding_lines.emplace(target->name, stmt.line);
        }
        while (target->kind == Expr::Kind::kAttr ||
               target->kind == Expr::Kind::kIndex) {
          target = target->lhs.get();
        }
        if (target->kind == Expr::Kind::kName) {
          assigned.insert(target->name);
        }
        break;
      }
      case Stmt::Kind::kFor:
        for (const std::string& var : stmt.loop_vars) {
          surface_->binding_lines.emplace(var, stmt.line);
          assigned.insert(var);
        }
        break;
      case Stmt::Kind::kDef: {
        const FunctionDefStmt& def = *stmt.def;
        surface_->binding_lines.emplace(def.name, stmt.line);
        assigned.insert(def.name);
        FunctionSignature& sig = surface_->functions[def.name];
        sig.params = def.params;
        sig.has_default.clear();
        for (const ExprPtr& dflt : def.defaults) {
          sig.has_default.push_back(dflt != nullptr);
        }
        sig.def_line = def.line;
        break;
      }
      case Stmt::Kind::kExpr:
        if (IsImportCall(*stmt.target)) {
          ImportTarget import = ClassifyImport(*stmt.target);
          if (import.kind == ImportTarget::Kind::kSchema) {
            surface_->has_schema_import = true;
          } else if (import.kind == ImportTarget::Kind::kDynamic) {
            surface_->has_dynamic_import = true;
          } else {
            surface_->imports.push_back({std::move(import.path),
                                         std::move(import.filter),
                                         import.line, arms_});
          }
        }
        break;
      default:
        break;
    }
  }

  ModuleSymbolSurface* surface_;
  std::vector<int> arms_;  // ModuleImport::arms of the statement scanned.
};

}  // namespace

ModuleSymbolSurface ComputeSymbolSurface(
    const Result<std::shared_ptr<Module>>& module) {
  ModuleSymbolSurface surface;
  if (!module.ok()) {
    return surface;  // analyzable = false.
  }
  surface.analyzable = true;
  for (const StmtPtr& stmt : (*module)->body) {
    StmtScan scan(&surface);
    scan.Scan(*stmt);
    bool side_effecting = scan.assigned.empty() ||
                          stmt->kind == Stmt::Kind::kExpr ||
                          stmt->kind == Stmt::Kind::kAssert || scan.has_import;
    scan.dump.push_back('\n');
    if (side_effecting) {
      // Imports, exports, asserts, bare calls: their effects aren't
      // attributable to one symbol, so any change falls back to file level.
      surface.side_effects += scan.dump;
    }
    for (const std::string& name : scan.assigned) {
      surface.fingerprints[name] += scan.dump;
      surface.reads[name].insert(scan.reads.begin(), scan.reads.end());
      surface.def_lines[name].push_back({stmt->line, scan.last_line});
    }
  }
  return surface;
}

std::optional<std::set<std::string>> ChangedSymbols(
    const ModuleSymbolSurface& old_surface,
    const ModuleSymbolSurface& new_surface) {
  if (!old_surface.analyzable || !new_surface.analyzable) {
    return std::nullopt;
  }
  if (old_surface.side_effects != new_surface.side_effects) {
    return std::nullopt;  // Import/export/assert statements changed.
  }
  std::set<std::string> changed;
  bool surface_grew = false;
  for (const auto& [name, fingerprint] : new_surface.fingerprints) {
    auto it = old_surface.fingerprints.find(name);
    if (it == old_surface.fingerprints.end()) {
      changed.insert(name);
      surface_grew = true;  // Addition: may shadow via star imports.
    } else if (it->second != fingerprint) {
      changed.insert(name);
    }
  }
  for (const auto& [name, fingerprint] : old_surface.fingerprints) {
    if (new_surface.fingerprints.count(name) == 0) {
      changed.insert(name);  // Deletion.
    }
  }
  // Intra-module closure: `B = A + 1` changes when A does. Iterate the
  // union def-use graph to a fixpoint.
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto* reads : {&old_surface.reads, &new_surface.reads}) {
      for (const auto& [name, read_names] : *reads) {
        if (changed.count(name) > 0) {
          continue;
        }
        for (const std::string& read : read_names) {
          if (changed.count(read) > 0) {
            changed.insert(name);
            grew = true;
            break;
          }
        }
      }
    }
  }
  if (surface_grew) {
    changed.insert("*");
  }
  return changed;
}

}  // namespace configerator
