// Cross-module abstract interpretation of CSL config programs (the semantic
// half of ConfigLint; see docs/ANALYSIS.md).
//
// The compiler's defenses — type checking, validators, canary — all require
// *executing* the config: a schema violation hiding in a rarely-taken branch
// sails through every one of them until production takes that branch. The
// abstract interpreter closes that gap. It runs the program over a lattice
// of abstract values instead of concrete ones (both arms of every branch,
// loop bodies to a fixpoint), following import_python()/import_thrift()
// across modules through the same FileReader overlay the compiler uses, and
//
//   1. infers, for every binding, the set of runtime kinds it may take plus
//      nullability, known constants, and integer ranges;
//   2. checks each exported config object against its Thrift schema without
//      evaluating it, reporting T010..T016 (see TypeRules());
//   3. emits a symbol-level dependency slice: which top-level symbols of
//      which imported modules the entry's compile actually consumes. The
//      DependencyService uses slices to prune file-level false positives
//      from EntriesAffectedBy, Sandcastle to bound re-analysis closures,
//      and RiskAdvisor/canary to score and annotate true blast radius.
//
// Like the syntactic rules, every T diagnostic reports a fact derived from a
// real assignment — `Any` (no information) never fires a rule, so an
// unresolvable import degrades to silence instead of false positives.

#ifndef SRC_ANALYSIS_ABSINT_H_
#define SRC_ANALYSIS_ABSINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"

namespace configerator {

// ---- The abstract value lattice ---------------------------------------------

// Bitmask of runtime kinds a value may take. 0 = bottom (unreachable).
enum AbstractKind : uint32_t {
  kAbsNull = 1u << 0,
  kAbsBool = 1u << 1,
  kAbsInt = 1u << 2,
  kAbsDouble = 1u << 3,
  kAbsString = 1u << 4,
  kAbsList = 1u << 5,
  kAbsDict = 1u << 6,
  kAbsFunction = 1u << 7,
};
inline constexpr uint32_t kAbsAnyMask = 0xFFu;

// Containers live in an explicit abstract heap (below) and values reference
// them by id: CSL dicts/lists have reference semantics (`b = a; b.x = 1`
// mutates a), so aliasing must survive branch snapshots — two names holding
// the same HeapId stay aliased, while branch states copy the heap and join
// it id-wise.
using HeapId = int;
inline constexpr HeapId kNoHeapId = -1;

struct AbstractFunction;  // Defined below.

// One point in the lattice: possible kinds, refined by a known scalar
// constant, an integer range, and (for containers) a heap object. `origins`
// carries provenance — the (module, symbol) pairs whose values flowed in —
// powering export slices and canary blast-radius annotation.
struct AbstractValue {
  uint32_t kinds = kAbsAnyMask;    // Any by default.
  bool any = true;                 // True = no information at all.
  std::optional<Value> constant;   // Exact scalar value, if known.
  std::optional<int64_t> int_min;  // Integer range (when kAbsInt set).
  std::optional<int64_t> int_max;
  HeapId object = kNoHeapId;       // Dict/list contents, when tracked.
  std::shared_ptr<const AbstractFunction> function;  // When kAbsFunction.
  std::set<std::pair<std::string, std::string>> origins;  // (module, symbol).

  static AbstractValue MakeAny();
  static AbstractValue Bottom();
  static AbstractValue OfKinds(uint32_t kinds);
  static AbstractValue OfConstant(const Value& v);

  bool is_any() const { return any; }
  bool is_bottom() const { return !any && kinds == 0; }
  bool may_be(uint32_t kind_mask) const {
    return any || (kinds & kind_mask) != 0;
  }
  bool only(uint32_t kind_mask) const {
    return !any && kinds != 0 && (kinds & ~kind_mask) == 0;
  }
  // Three-valued truthiness: a value when statically decided.
  std::optional<bool> TruthyIfKnown() const;

  // "int | string", ... for diagnostics.
  std::string Describe() const;
};

// A user function (AST + defining module scope), a builtin, or a schema
// struct constructor. Immutable once built.
struct AbstractFunction {
  const FunctionDefStmt* def = nullptr;  // User function; null otherwise.
  std::string file;                      // Defining module (user functions).
  std::shared_ptr<std::map<std::string, AbstractValue>> env;  // Def globals.
  std::string builtin;      // Builtin name, when def == nullptr.
  std::string struct_ctor;  // Struct name, for schema constructors.
};

struct AbstractField {
  AbstractValue value;
  bool maybe_absent = false;  // Assigned on some control-flow paths only.
};

// A dict or list in the abstract heap.
struct AbstractObject {
  bool is_list = false;
  // Schema tags observed for this object. One element = known type; more
  // than one = the type differs per branch (T012).
  std::set<std::string> struct_names;
  std::map<std::string, AbstractField> fields;  // Dict entries.
  bool fields_known = true;   // False once an unknown key may have been set.
  AbstractValue element = AbstractValue::Bottom();  // List element join.
  bool definitely_nonempty = false;
};

class AbstractHeap {
 public:
  HeapId Alloc(AbstractObject object);
  AbstractObject* Get(HeapId id);
  const AbstractObject* Get(HeapId id) const;
  const std::map<HeapId, AbstractObject>& objects() const { return objects_; }
  // Branch analysis snapshots and restores the whole object graph.
  std::map<HeapId, AbstractObject>& mutable_objects() { return objects_; }

 private:
  std::map<HeapId, AbstractObject> objects_;
  HeapId next_ = 0;
};

// ---- Results ----------------------------------------------------------------

// Flattened, heap-independent facts about one piece of an exported value,
// keyed by dot-path: "" is the export root, "thresholds.shed" a nested dict
// field. Invariant checking consumes these — they survive after the
// analyzer's heap is gone.
struct AbstractFieldFacts {
  uint32_t kinds = kAbsAnyMask;
  bool any = true;
  std::optional<Value> constant;   // Exact scalar, if pinned.
  std::optional<int64_t> int_min;  // Integer interval (when kAbsInt set).
  std::optional<int64_t> int_max;
  bool maybe_absent = false;  // Assigned on some control-flow paths only.
};
using AbstractFieldMap = std::map<std::string, AbstractFieldFacts>;

// Per-export provenance: which imported symbols flow into the exported value
// (data or control dependence).
struct ExportSlice {
  std::string path;       // Output path, e.g. "feed/cache_job.json".
  std::string type_name;  // Schema struct, "" for untyped exports.
  int line = 0;
  // Union of data and control dependence (the sound invalidation set).
  std::map<std::string, std::set<std::string>> symbols_by_module;
  // Control dependence alone: symbols that only *guard* which value is
  // exported, never flow into it. SemanticDiffer uses the split to tell a
  // control-shift from a value-delta.
  std::map<std::string, std::set<std::string>> control_by_module;
  // Deterministic render of the exported abstract value (see SymbolSummary).
  std::string value_digest;
  std::string value_brief;
  bool value_precise = false;
  // Flattened field lattice facts (depth- and size-capped). One slice per
  // `export` call site: an export inside both arms of a branch yields two
  // slices for the same path — the invariant checker's case-split basis.
  AbstractFieldMap fields;
};

// Deterministic abstract summary of one top-level binding, comparable across
// two versions of a file. `digest` is a canonical render of the abstract
// value — byte-equal digests mean the analyzer proved the same facts.
// `precise` means the digest pins down exactly one concrete value (constant
// scalars, fully-known struct literals), so equal precise digests prove the
// runtime values equal: that is SemanticDiffer's no-op certificate.
struct SymbolSummary {
  uint32_t kinds = kAbsAnyMask;
  bool any = true;
  bool precise = false;
  std::string digest;     // Full canonical render.
  std::string brief;      // Truncated render for reports and canary scopes.
  std::string type_name;  // Schema struct tag when exactly one is possible.
  // (module -> symbols) this binding's value was derived from.
  std::map<std::string, std::set<std::string>> deps;
};

// A non-literal branch condition the interpreter statically decided: the
// same truth value on every abstract path (cross-module constant flow). The
// guarded arm is unreachable under every schema-valid context — G008.
struct DecidedBranch {
  std::string file;
  int line = 0;
  bool value = false;  // The condition's decided truth value.
};

// A symbol-level dependency slice: module -> the top-level symbols read.
using SymbolSlice = std::map<std::string, std::set<std::string>>;

// The one empty slice, which every result that analyzed nothing holds.
const std::shared_ptr<const SymbolSlice>& EmptySymbolSlice();

struct AbsintResult {
  // False when the file failed to parse (the compiler reports that) or was
  // not a CSL source; no other fields are meaningful then.
  bool analyzed = false;
  // False when an import could not be resolved statically (dynamic path,
  // unreadable or unparseable target) or the analysis ran out of stack and
  // gave up to Any: `used_symbols` is then incomplete and callers must NOT
  // use it to prune dependency edges.
  bool slice_sound = true;
  std::vector<LintDiagnostic> diagnostics;  // T-rules, sorted by line.
  std::vector<ExportSlice> exports;
  // The entry's full symbol-level dependency slice: every (module ->
  // top-level symbols) read anywhere during the abstract run, including
  // inside transitively imported module bodies. The pseudo-symbol "*" marks
  // modules that are star-imported (their surface *growing* can shadow
  // names, so additions must invalidate). This is the sound pruning set the
  // DependencyService consumes: shared and immutable, so it keeps this
  // pointer instead of a copy. Never null.
  std::shared_ptr<const SymbolSlice> used_symbols = EmptySymbolSlice();
  // Abstract summary of every top-level binding after the module body ran,
  // keyed by symbol name: what SemanticDiffer compares across versions.
  std::map<std::string, SymbolSummary> symbol_summaries;
  // Non-literal conditions decided to one truth value on every path (G008
  // material). Sorted by (file, line); sites observed under both truth
  // values (e.g. a helper called with different constants) are dropped.
  std::vector<DecidedBranch> decided_branches;
};

// ---- Schema checking (type_rules.cc) ----------------------------------------

// Inclusive numeric bounds mined from a validator's top-level asserts
// (`assert cfg.field >= 1`): tighter than the integral type's natural range.
struct FieldBounds {
  std::optional<int64_t> min;
  std::optional<int64_t> max;
};
// struct name -> field name -> bounds.
using ValidatorBounds = std::map<std::string, std::map<std::string, FieldBounds>>;

// Runs T010..T016 on one exported abstract value against `struct_name`'s
// schema, appending findings to `diags`. Mirrors the concrete checker in
// src/schema/typecheck.cc: whatever that accepts, this must not flag.
void RunTypeRules(const SchemaRegistry& registry, const ValidatorBounds& bounds,
                  const AbstractHeap& heap, const std::string& file, int line,
                  const std::string& export_path, const std::string& struct_name,
                  const AbstractValue& value, std::vector<LintDiagnostic>* diags);

// ---- Driver -----------------------------------------------------------------

class AbstractInterpreter {
 public:
  // `reader` resolves imports, exactly like the compiler's. Without one,
  // cross-module inference degrades to Any (no diagnostics, empty slices).
  // Parses go through a unit cache the interpreter owns. Every call
  // analyzes afresh: AnalysisStore (src/analysis/store.h) is what memoizes
  // whole results.
  explicit AbstractInterpreter(FileReader reader = nullptr);
  // Parses through `units` instead, which must outlive the interpreter.
  AbstractInterpreter(FileReader reader, CompiledUnitCache& units);

  // Analyzes one CSL source. Only ".cconf" entries get export/schema checks;
  // ".cinc" modules are analyzed for slices and local T-rules.
  AbsintResult Analyze(const std::string& path, const std::string& content);

  // Convenience: reads `path` through the FileReader first.
  AbsintResult AnalyzePath(const std::string& path);

  // The T-rule table (docs, --explain).
  static const std::vector<LintRuleInfo>& TypeRules();

 private:
  FileReader reader_;
  std::unique_ptr<CompiledUnitCache> owned_units_;  // Null when given one.
  CompiledUnitCache* units_;
};

// ---- Symbol diffing (Sandcastle's refined edges) ----------------------------

// A module-level function's signature, for call-arity checks.
struct FunctionSignature {
  std::vector<std::string> params;
  std::vector<bool> has_default;  // Parallel to params.
  int def_line = 0;
};

// One literal `import_python(path, filter)` statement of a module.
struct ModuleImport {
  std::string path;
  std::string filter;  // "*" or one symbol.
  int line = 0;
  // The if/else arms the import sits in, outermost first: 2n for the body
  // of the `if` on line n (an `elif` is an `if` nested in the else arm),
  // 2n + 1 for its else arm.
  std::vector<int> arms;
};

// The statically-visible top-level symbol surface of one module version,
// with a definition fingerprint per symbol and an intra-module def-use graph
// (symbol -> names its defining statements read), so a change to `A` also
// invalidates `B = A + 1`.
//
// It is also the one pre-scan of the module that lint and import
// composition (AnalysisStore::Import) read. "Module level" there means
// outside function bodies, inside if/for/while blocks included.
struct ModuleSymbolSurface {
  bool analyzable = false;  // False: callers must fall back to file level.
  std::map<std::string, std::string> fingerprints;   // symbol -> digest.
  std::map<std::string, std::set<std::string>> reads;  // symbol -> names read.
  std::string side_effects;  // Digest of non-binding top-level statements.
  // Source line ranges [first, last] of each symbol's defining statements —
  // lets diff hunks be attributed to the symbols they touch.
  std::map<std::string, std::vector<std::pair<int, int>>> def_lines;

  // Each name bound at module level, with the line of its first binding: a
  // `Name = v` or `Name op= v` target, a loop variable or a `def`.
  // `X.y = v` and `X[k] = v` mutate X; they do not bind it.
  std::map<std::string, int> binding_lines;
  // The signature of each module-level `def`, the last one of each name.
  std::map<std::string, FunctionSignature> functions;
  // Module-level import statements with a literal module path and filter,
  // in source order.
  std::vector<ModuleImport> imports;
  bool has_schema_import = false;   // A module-level schema import.
  bool has_dynamic_import = false;  // A module-level computed import.
};

// The surface of the module version `module` parses (ParseCsl, or a unit
// cache's GetOrParse); a failed parse gives a surface that is not
// analyzable.
ModuleSymbolSurface ComputeSymbolSurface(
    const Result<std::shared_ptr<Module>>& module);

// Which top-level symbols changed between two versions of a module. Includes
// the intra-module closure (dependents of changed symbols) and the "*"
// marker when the surface gained symbols (star-import shadowing hazard).
// nullopt = not statically comparable (parse failure, side-effecting
// top-level statements changed) — callers fall back to file-level edges.
std::optional<std::set<std::string>> ChangedSymbols(
    const ModuleSymbolSurface& old_surface,
    const ModuleSymbolSurface& new_surface);

}  // namespace configerator

#endif  // SRC_ANALYSIS_ABSINT_H_
