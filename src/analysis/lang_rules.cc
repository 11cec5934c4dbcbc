// Language rule family (L001..L010): a scope-resolution pass over the CSL
// AST. The pass mirrors the interpreter's name semantics — star imports copy
// a module's globals, assignment defines in the innermost scope, function
// bodies read enclosing scopes. What an import_python() binds comes from the
// analysis store's import composition (AnalysisStore::Import), the same one
// semdiff's G010 reads; import_thrift() targets are read through the
// FileReader. A literal target that does not exist, or a schema include it
// names that does not, is L010: a module that imports it lands otherwise,
// since only entries compile. Where a target cannot be resolved for any
// other reason (no reader, non-literal path, cycle, parse failure, the
// depth bound), the affected checks degrade to silence rather than
// guessing: a lint false positive that blocks landing is worse than a miss
// the compiler will catch anyway.

#include <cctype>
#include <map>
#include <set>
#include <string>

#include "src/analysis/rules.h"
#include "src/analysis/store.h"
#include "src/lang/builtins.h"
#include "src/lang/import_resolver.h"
#include "src/schema/schema.h"

namespace configerator {
namespace analysis {

namespace {

// Every name bound before user code runs: the registered builtin functions
// and the special forms the interpreter evaluates itself.
const std::set<std::string>& BuiltinNames() {
  static const std::set<std::string>* names = [] {
    auto* names = new std::set<std::string>{"import_python", "import_thrift",
                                            "export", "export_if_last"};
    for (const auto& [name, value] : SharedBuiltinsEnvironment()->vars()) {
      names->insert(name);
    }
    return names;
  }();
  return *names;
}

// A known function's signature (local or imported).
struct FuncSig : FunctionSignature {
  std::string origin;  // File that defines it, for cross-module messages.
};

// One lexical scope. The module frame fills in statement order (so
// use-before-def is detectable); function frames pre-collect every assigned
// name because the interpreter resolves function-body reads against the
// whole environment chain at call time, not in textual order.
struct Frame {
  bool is_function = false;
  std::map<std::string, int> defined;  // name -> definition line
  std::map<std::string, int> reads;    // name -> read count
  std::set<std::string> params;
  std::set<std::string> assigned_anywhere;  // Function frames only.
};

void CollectAssignedNames(const std::vector<StmtPtr>& body,
                          std::set<std::string>* out) {
  for (const StmtPtr& stmt : body) {
    switch (stmt->kind) {
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kAugAssign:
        if (stmt->target->kind == Expr::Kind::kName) {
          out->insert(stmt->target->name);
        }
        break;
      case Stmt::Kind::kFor:
        for (const std::string& var : stmt->loop_vars) {
          out->insert(var);
        }
        CollectAssignedNames(stmt->body, out);
        break;
      case Stmt::Kind::kIf:
      case Stmt::Kind::kWhile:
        CollectAssignedNames(stmt->body, out);
        CollectAssignedNames(stmt->orelse, out);
        break;
      case Stmt::Kind::kDef:
        out->insert(stmt->def->name);
        break;
      default:
        break;
    }
  }
}

class LangAnalyzer {
 public:
  LangAnalyzer(const Module& module, const ModuleSymbolSurface& surface,
               const FileReader& reader, std::vector<LintDiagnostic>* diags,
               AnalysisStore& store)
      : module_(module),
        module_names_(surface.binding_lines),
        reader_(reader),
        diags_(diags),
        store_(store) {
    // The module's surface is its pre-scan: forward references classify as
    // use-before-def (L002) instead of undefined (L001), and signatures are
    // known before the textual pass reaches the call site.
    for (const auto& [name, sig] : surface.functions) {
      known_funcs_[name] = FuncSig{sig, module_.path};
    }
  }

  void Run() {
    frames_.push_back(Frame{});
    WalkBlock(module_.body, /*loop_depth=*/0);
    ReportUnused();
  }

 private:
  // ---- Reporting -----------------------------------------------------------

  void Report(const char* rule_id, LintSeverity severity, int line,
              std::string message, std::string suggestion = "") {
    LintDiagnostic diag;
    diag.rule_id = rule_id;
    diag.severity = severity;
    diag.file = module_.path;
    diag.line = line;
    diag.message = std::move(message);
    diag.suggestion = std::move(suggestion);
    diags_->push_back(std::move(diag));
  }

  // ---- Import resolution ---------------------------------------------------

  // L010: importing `target` reads `missing` (the target or an include it
  // names), which does not exist.
  void ReportMissing(int line, const std::string& target,
                     const std::string& missing) {
    Report("L010", LintSeverity::kError, line,
           missing == target
               ? "import of '" + target + "', which does not exist"
               : "import of '" + target + "', which includes '" + missing +
                     "', which does not exist",
           "add " + missing + " or fix the path");
  }

  Result<std::string> ReadSource(const std::string& path) {
    if (!reader_) {
      return UnavailableError("no file reader configured for lint");
    }
    return reader_(path);
  }

  // A record of one import in the file under analysis, for L004.
  struct ImportRecord {
    int line = 0;
    std::string path;
    std::string filter;            // "*" or one symbol.
    std::set<std::string> names;   // Names the import defined here.
    bool verifiable = false;       // Resolution succeeded.
  };

  void HandleImport(const Expr& call) {
    ImportTarget import = ClassifyImport(call);
    if (import.kind == ImportTarget::Kind::kDynamic) {
      // Dynamic import path or filter: all bets are off for name resolution.
      unresolved_star_import_ = true;
      unresolved_schema_import_ = true;
      return;
    }
    if (import.kind == ImportTarget::Kind::kSchema) {
      HandleSchemaImport(import.path, call.line);
      return;
    }
    const std::string& path = import.path;
    ImportRecord record;
    record.line = call.line;
    record.path = path;
    record.filter = import.filter;
    ImportBinding binding = store_.Import(reader_, path, import.filter);
    if (binding.missing) {
      ReportMissing(call.line, path, path);
    }
    if (binding.has_schema_import) {
      // The imported module may hand us schema-constructed values whose
      // constructors we cannot enumerate here.
      unresolved_schema_import_ = true;
    }
    if (record.filter == "*" && binding.unresolved) {
      unresolved_star_import_ = true;
      return;
    }
    record.verifiable = !binding.unresolved;
    if (record.filter != "*" && binding.names.empty()) {
      // The name stays defined here, so its uses do not cascade into L001.
      record.names.insert(record.filter);
      DefineModuleName(record.filter, call.line, /*from_import=*/true);
      if (record.verifiable) {
        Report("L001", LintSeverity::kError, call.line,
               "'" + record.filter + "' is not defined by module '" + path +
                   "'",
               "check the symbol name against " + path);
      }
    }
    for (const auto& [name, bound] : binding.names) {
      record.names.insert(name);
      DefineModuleName(name, call.line, /*from_import=*/true);
      if (bound.function.has_value()) {
        known_funcs_[name] = FuncSig{*bound.function, bound.function_module};
      }
    }
    imports_.push_back(std::move(record));
  }

  void HandleSchemaImport(const std::string& path, int line) {
    SchemaRegistry registry;
    std::string missing;  // The first file the load found absent.
    Status loaded = registry.Load(path, [&](const std::string& file) {
      Result<std::string> source = ReadSource(file);
      if (!source.ok() && source.status().code() == StatusCode::kNotFound &&
          missing.empty()) {
        missing = file;
      }
      return source;
    });
    if (!loaded.ok()) {
      unresolved_schema_import_ = true;
      if (!missing.empty()) {
        ReportMissing(line, path, missing);
      }
      return;
    }
    for (const std::string& name : registry.StructNames()) {
      schema_names_.insert(name);
    }
    for (const std::string& name : registry.EnumNames()) {
      schema_names_.insert(name);
    }
  }

  // ---- Scope machinery -----------------------------------------------------

  bool InFunction() const {
    for (const Frame& frame : frames_) {
      if (frame.is_function) {
        return true;
      }
    }
    return false;
  }

  void DefineModuleName(const std::string& name, int line, bool from_import) {
    frames_.front().defined.emplace(name, line);
    if (from_import) {
      import_defined_.insert(name);
    }
  }

  void DefineName(const std::string& name, int line) {
    Frame& frame = frames_.back();
    frame.defined.emplace(name, line);
    if (BuiltinNames().count(name) > 0) {
      Report("L006", LintSeverity::kWarning, line,
             "'" + name + "' shadows a builtin function",
             "rename the binding");
    }
    // Reassigning a known function name invalidates its signature for
    // call-arity checking.
    if (!frames_.back().is_function && frames_.size() == 1) {
      auto it = known_funcs_.find(name);
      if (it != known_funcs_.end() && it->second.def_line != line) {
        known_funcs_.erase(it);
      }
    }
  }

  // Resolves a read. Returns true if the name resolved somewhere.
  void UseName(const std::string& name, int line) {
    // Innermost-out over the live frames.
    for (auto frame = frames_.rbegin(); frame != frames_.rend(); ++frame) {
      if (frame->defined.count(name) > 0 ||
          frame->params.count(name) > 0 ||
          (frame->is_function && frame->assigned_anywhere.count(name) > 0)) {
        ++frame->reads[name];
        return;
      }
    }
    // From inside a function body any module-level binding resolves
    // regardless of textual order (the call happens after the module ran).
    if (InFunction()) {
      auto it = module_names_.find(name);
      if (it != module_names_.end()) {
        ++frames_.front().reads[name];
        return;
      }
    }
    if (schema_names_.count(name) > 0 || BuiltinNames().count(name) > 0) {
      return;
    }
    auto later = module_names_.find(name);
    if (!InFunction() && later != module_names_.end()) {
      Report("L002", LintSeverity::kError, line,
             "'" + name + "' is used before its definition on line " +
                 std::to_string(later->second),
             "move the definition above this use");
      ++frames_.front().reads[name];
      return;
    }
    if (unresolved_star_import_) {
      return;  // The name may come from an unresolvable import.
    }
    if (unresolved_schema_import_ && !name.empty() &&
        std::isupper(static_cast<unsigned char>(name[0]))) {
      return;  // Probably a schema constructor we could not load.
    }
    Report("L001", LintSeverity::kError, line,
           "'" + name + "' is not defined",
           "define it, or import the module that does");
  }

  // ---- AST walk ------------------------------------------------------------

  void WalkBlock(const std::vector<StmtPtr>& body, int loop_depth) {
    bool unreachable_reported = false;
    bool terminated = false;
    for (const StmtPtr& stmt : body) {
      if (terminated && !unreachable_reported) {
        Report("L007", LintSeverity::kWarning, stmt->line,
               "statement is unreachable", "remove it");
        unreachable_reported = true;
      }
      WalkStmt(*stmt, loop_depth);
      if (stmt->kind == Stmt::Kind::kReturn ||
          stmt->kind == Stmt::Kind::kBreak ||
          stmt->kind == Stmt::Kind::kContinue) {
        terminated = true;
      }
    }
  }

  void WalkStmt(const Stmt& stmt, int loop_depth) {
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        WalkExpr(*stmt.target);
        break;
      case Stmt::Kind::kAssign:
        WalkExpr(*stmt.value);
        WalkAssignTarget(*stmt.target, stmt.line);
        break;
      case Stmt::Kind::kAugAssign:
        WalkExpr(*stmt.value);
        if (stmt.target->kind == Expr::Kind::kName) {
          UseName(stmt.target->name, stmt.line);  // Read-modify-write.
        }
        WalkAssignTarget(*stmt.target, stmt.line);
        break;
      case Stmt::Kind::kIf:
        if (stmt.target->kind == Expr::Kind::kLiteral) {
          Report("L009", LintSeverity::kWarning, stmt.line,
                 "'if' condition is a constant; one branch is dead",
                 "inline the live branch");
        }
        WalkExpr(*stmt.target);
        WalkBlock(stmt.body, loop_depth);
        WalkBlock(stmt.orelse, loop_depth);
        break;
      case Stmt::Kind::kFor: {
        WalkExpr(*stmt.value);
        for (const std::string& var : stmt.loop_vars) {
          DefineName(var, stmt.line);
          loop_vars_.insert(var);
        }
        PredefineLoopBody(stmt.body, stmt.line);
        WalkBlock(stmt.body, loop_depth + 1);
        break;
      }
      case Stmt::Kind::kWhile:
        WalkExpr(*stmt.target);
        PredefineLoopBody(stmt.body, stmt.line);
        WalkBlock(stmt.body, loop_depth + 1);
        break;
      case Stmt::Kind::kDef:
        WalkDef(stmt);
        break;
      case Stmt::Kind::kReturn:
        if (stmt.target != nullptr) {
          WalkExpr(*stmt.target);
        }
        break;
      case Stmt::Kind::kAssert:
        WalkExpr(*stmt.target);
        if (stmt.value != nullptr) {
          WalkExpr(*stmt.value);
        }
        break;
      case Stmt::Kind::kPass:
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        break;
    }
  }

  // Names assigned anywhere in a loop body count as defined for the whole
  // body: an accumulation pattern may read on iteration N a name written on
  // iteration N-1.
  void PredefineLoopBody(const std::vector<StmtPtr>& body, int line) {
    std::set<std::string> assigned;
    CollectAssignedNames(body, &assigned);
    for (const std::string& name : assigned) {
      if (frames_.back().defined.count(name) == 0) {
        frames_.back().defined.emplace(name, line);
        loop_vars_.insert(name);  // Exempt from unused-binding reporting.
      }
    }
  }

  void WalkAssignTarget(const Expr& target, int line) {
    switch (target.kind) {
      case Expr::Kind::kName:
        DefineName(target.name, line);
        break;
      case Expr::Kind::kAttr:
        WalkExpr(*target.lhs);  // obj.field = v reads obj.
        break;
      case Expr::Kind::kIndex:
        WalkExpr(*target.lhs);  // d[k] = v reads d and k.
        WalkExpr(*target.rhs);
        break;
      default:
        break;
    }
  }

  void WalkDef(const Stmt& stmt) {
    const FunctionDefStmt& def = *stmt.def;
    // Defaults evaluate at definition time, in the enclosing scope.
    for (const ExprPtr& dflt : def.defaults) {
      if (dflt != nullptr) {
        WalkExpr(*dflt);
      }
    }
    DefineName(def.name, stmt.line);

    Frame frame;
    frame.is_function = true;
    for (const std::string& param : def.params) {
      frame.params.insert(param);
      if (BuiltinNames().count(param) > 0) {
        Report("L006", LintSeverity::kWarning, def.line,
               "parameter '" + param + "' shadows a builtin function",
               "rename the parameter");
      }
    }
    CollectAssignedNames(def.body, &frame.assigned_anywhere);
    frames_.push_back(std::move(frame));
    WalkBlock(def.body, /*loop_depth=*/0);
    Frame finished = std::move(frames_.back());
    frames_.pop_back();
    // Unused locals (not params, not '_'-prefixed).
    for (const auto& [name, line] : finished.defined) {
      if (finished.reads[name] == 0 && !name.starts_with("_") &&
          loop_vars_.count(name) == 0) {
        Report("L003", LintSeverity::kWarning, line,
               "local '" + name + "' is assigned but never read",
               "remove the binding or prefix it with '_'");
      }
    }
  }

  void WalkExpr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        break;
      case Expr::Kind::kName:
        UseName(expr.name, expr.line);
        break;
      case Expr::Kind::kList:
        for (const ExprPtr& item : expr.items) {
          WalkExpr(*item);
        }
        break;
      case Expr::Kind::kDict:
        for (const auto& [key, value] : expr.pairs) {
          WalkExpr(*key);
          WalkExpr(*value);
        }
        break;
      case Expr::Kind::kBinary:
        WalkExpr(*expr.lhs);
        WalkExpr(*expr.rhs);
        break;
      case Expr::Kind::kUnary:
        WalkExpr(*expr.lhs);
        break;
      case Expr::Kind::kTernary:
        if (expr.rhs->kind == Expr::Kind::kLiteral) {
          Report("L009", LintSeverity::kWarning, expr.line,
                 "ternary condition is a constant; one branch is dead",
                 "inline the live branch");
        }
        WalkExpr(*expr.lhs);
        WalkExpr(*expr.rhs);
        WalkExpr(*expr.third);
        break;
      case Expr::Kind::kCall:
        WalkCall(expr);
        break;
      case Expr::Kind::kAttr:
        WalkExpr(*expr.lhs);
        break;
      case Expr::Kind::kIndex:
        WalkExpr(*expr.lhs);
        WalkExpr(*expr.rhs);
        break;
    }
  }

  void WalkCall(const Expr& call) {
    if (call.lhs->kind == Expr::Kind::kName &&
        (call.lhs->name == "import_python" ||
         call.lhs->name == "import_thrift")) {
      HandleImport(call);
      return;  // Path/filter are literals; nothing else to resolve.
    }
    WalkExpr(*call.lhs);
    for (const ExprPtr& arg : call.items) {
      WalkExpr(*arg);
    }
    for (const auto& [name, value] : call.kwargs) {
      WalkExpr(*value);
    }
    if (call.lhs->kind == Expr::Kind::kName) {
      CheckCallArity(call);
    }
  }

  void CheckCallArity(const Expr& call) {
    auto it = known_funcs_.find(call.lhs->name);
    if (it == known_funcs_.end()) {
      return;
    }
    const FuncSig& sig = it->second;
    const std::string& fn = call.lhs->name;
    std::string where =
        sig.origin == module_.path
            ? "line " + std::to_string(sig.def_line)
            : sig.origin + ":" + std::to_string(sig.def_line);
    if (call.items.size() > sig.params.size()) {
      Report("L008", LintSeverity::kError, call.line,
             fn + "() takes at most " + std::to_string(sig.params.size()) +
                 " arguments but got " + std::to_string(call.items.size()) +
                 " (defined at " + where + ")",
             "drop the extra arguments");
      return;
    }
    std::set<std::string> bound(sig.params.begin(),
                                sig.params.begin() + call.items.size());
    for (const auto& [kw, value] : call.kwargs) {
      bool known_param = false;
      for (const std::string& param : sig.params) {
        if (param == kw) {
          known_param = true;
          break;
        }
      }
      if (!known_param) {
        Report("L008", LintSeverity::kError, call.line,
               fn + "() has no parameter named '" + kw + "' (defined at " +
                   where + ")",
               "check the parameter names");
        continue;
      }
      if (!bound.insert(kw).second) {
        Report("L008", LintSeverity::kError, call.line,
               fn + "() got multiple values for parameter '" + kw + "'",
               "pass the parameter once");
      }
    }
    for (size_t i = 0; i < sig.params.size(); ++i) {
      bool required = i >= sig.has_default.size() || !sig.has_default[i];
      if (required && bound.count(sig.params[i]) == 0) {
        Report("L008", LintSeverity::kError, call.line,
               fn + "() is missing required argument '" + sig.params[i] +
                   "' (defined at " + where + ")",
               "pass a value for '" + sig.params[i] + "'");
      }
    }
  }

  // ---- Post-pass unused reporting ------------------------------------------

  void ReportUnused() {
    const Frame& module_frame = frames_.front();

    for (const ImportRecord& import : imports_) {
      if (!import.verifiable) {
        continue;
      }
      size_t used = 0;
      for (const std::string& name : import.names) {
        auto reads = module_frame.reads.find(name);
        if (reads != module_frame.reads.end() && reads->second > 0) {
          ++used;
        }
      }
      if (used == 0) {
        std::string what = import.filter == "*"
                               ? "nothing imported from '" + import.path +
                                     "' is used"
                               : "imported symbol '" + import.filter +
                                     "' is unused";
        Report("L004", LintSeverity::kWarning, import.line, what,
               "remove the import");
      }
    }

    // Module-level unused bindings only matter for entry files: a .cinc's
    // globals are its export surface for other modules.
    if (!module_.path.ends_with(".cconf")) {
      return;
    }
    for (const auto& [name, line] : module_frame.defined) {
      if (name.starts_with("_") || import_defined_.count(name) > 0 ||
          loop_vars_.count(name) > 0) {
        continue;
      }
      auto reads = module_frame.reads.find(name);
      if (reads == module_frame.reads.end() || reads->second == 0) {
        Report("L003", LintSeverity::kWarning, line,
               "'" + name + "' is assigned but never read",
               "remove the binding or prefix it with '_'");
      }
    }
  }

  const Module& module_;
  // The module's names at any line, with their first binding line.
  const std::map<std::string, int>& module_names_;
  const FileReader& reader_;
  std::vector<LintDiagnostic>* diags_;
  AnalysisStore& store_;

  std::map<std::string, FuncSig> known_funcs_;
  std::set<std::string> schema_names_;
  std::set<std::string> import_defined_;
  std::set<std::string> loop_vars_;
  std::vector<ImportRecord> imports_;
  std::vector<Frame> frames_;
  bool unresolved_star_import_ = false;
  bool unresolved_schema_import_ = false;
};

}  // namespace

void RunLanguageRules(const Module& module, const ModuleSymbolSurface& surface,
                      const FileReader& reader,
                      std::vector<LintDiagnostic>* diags,
                      AnalysisStore& store) {
  LangAnalyzer(module, surface, reader, diags, store).Run();
}

}  // namespace analysis
}  // namespace configerator
