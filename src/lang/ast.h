// AST for the config source language.

#ifndef SRC_LANG_AST_H_
#define SRC_LANG_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/diagnostic.h"
#include "src/lang/value.h"

namespace configerator {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

// Deepest AST the parser accepts, counted from the module root (statements
// nest through blocks, expressions through operands — a left-associative
// chain `1+1+...` is as deep as it is long). Every later tree walk — the
// interpreter, lint, absint, semdiff, the symbol surfaces and the node
// destructors — recurses over this tree, so bounding it at parse time
// bounds their stack use. Sized so that the parser and every walker stay
// within an 8 MB stack even in an ASan build, whose frames are several
// times larger.
inline constexpr int kMaxCslAstDepth = 256;

struct Expr {
  enum class Kind : uint8_t {
    kLiteral,  // literal (int/float/string/bool/None)
    kName,     // identifier
    kList,     // [a, b, c]
    kDict,     // {"k": v}
    kBinary,   // a OP b (op in `name`)
    kUnary,    // OP a   (op in `name`: "-", "not")
    kTernary,  // a if cond else b   (lhs=a, cond in rhs, third=b)
    kCall,     // callee(args..., kw=...)  (lhs=callee)
    kAttr,     // base.attr  (lhs=base, name=attr)
    kIndex,    // base[key]  (lhs=base, rhs=key)
  };

  Kind kind;
  uint16_t height = 1;  // Of this subtree; maintained by the parser.
  int line = 0;

  Value literal;                 // kLiteral
  std::string name;              // kName / kAttr / op spelling
  std::vector<ExprPtr> items;    // list elements / call positional args
  std::vector<std::pair<ExprPtr, ExprPtr>> pairs;  // dict entries
  std::vector<std::pair<std::string, ExprPtr>> kwargs;  // call keyword args
  ExprPtr lhs;
  ExprPtr rhs;
  ExprPtr third;
};

// A function definition. Closures hold stable pointers to these, so modules
// owning them must outlive all values produced by evaluation (the compiler
// session guarantees this by caching modules for its lifetime).
struct FunctionDefStmt {
  std::string name;
  std::vector<std::string> params;
  std::vector<ExprPtr> defaults;  // Parallel to params; null = no default.
  std::vector<StmtPtr> body;
  int line = 0;
  // Path of the module that defines the function. Runtime errors inside the
  // body are reported against this origin, not the caller's module — a
  // cross-module call must point at the failing line where it actually
  // lives.
  std::string origin;
};

struct Stmt {
  enum class Kind {
    kExpr,      // bare expression (e.g. a call)
    kAssign,    // target = value
    kAugAssign, // target op= value (op in `op`)
    kIf,        // cond/body/orelse (elif chains nest in orelse)
    kFor,       // for loop_vars in value: body
    kWhile,     // while cond: body
    kDef,       // function definition
    kReturn,
    kAssert,    // assert cond[, message]
    kPass,
    kBreak,
    kContinue,
  };

  Kind kind;
  int line = 0;

  ExprPtr target;  // kAssign/kAugAssign target; kExpr/kReturn/kAssert condition
  ExprPtr value;   // assigned value / for iterable / assert message
  std::string op;  // kAugAssign operator ("+", "-", ...)
  std::vector<std::string> loop_vars;  // kFor targets (1 = plain, 2+ = unpack)
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;
  std::unique_ptr<FunctionDefStmt> def;  // kDef
};

// A parsed source file.
struct Module {
  std::string path;
  std::vector<StmtPtr> body;
};

// Parses tokenized source into a module. `origin` labels error messages.
// If `lint_diags` is given, non-fatal findings detectable during parsing
// (duplicate constant keys in dict literals — evaluation is last-write-wins)
// are appended to it instead of failing the parse; ConfigLint surfaces them.
Result<std::shared_ptr<Module>> ParseCsl(std::string_view source,
                                         const std::string& origin,
                                         std::vector<LintDiagnostic>* lint_diags = nullptr);

}  // namespace configerator

#endif  // SRC_LANG_AST_H_
