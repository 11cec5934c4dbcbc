// Generative fuzz battery for the CSL compiler's caches: the parse cache
// and the whole-entry output memo with its read traces.
//
// A seeded generator produces random CSL programs exercising every AST node
// — literals, names, list/dict construction, unary/binary/ternary
// expressions (including short-circuit and/or), attribute and index
// get/set, augmented assignment, if/elif/else, for (with unpacking),
// while, break/continue (inside and outside loops), def with defaults and
// kwargs, nested closures, assert, builtin calls, import special forms and
// exports. Every program compiles twice through one long-lived compiler
// whose cache has seen every earlier program at the same paths (the second
// compile replays from the output memo), and once through a fresh compiler
// built for that program alone — the oracle. The outcomes must match
// exactly:
//
//   * success/failure must agree,
//   * on success, exported JSON artifacts must be bit-identical,
//   * on failure, the full error (class, origin path, line, message chain)
//     must be byte-identical.
//
// A divergence means a cache served a stale parse or replayed a stale
// output. It is ddmin-shrunk over the entry module's statement list before
// being reported, so the failure message carries a minimal reproducer, not
// a 30-statement wall of noise.
//
// Both sides of that comparison run the same interpreter, so a semantic bug
// in the interpreter itself shows in neither. A golden digest closes the
// gap: the fresh compiler's outcome for every seeded program, folded into
// one SHA-256, must match a committed constant.
//
// The mutation lane bit-flips valid programs and requires the cached and
// fresh compilers to keep agreeing (typically on a parse diagnostic)
// without crashing — the case the ASan/UBSan build hammers.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"
#include "src/util/ddmin.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/strings.h"
#include "tests/mutate.h"

namespace configerator {
namespace {

constexpr int kPrograms = 1100;
constexpr int kMutations = 256;

// --- Random program generator ----------------------------------------------

struct GenProgram {
  std::map<std::string, std::string> modules;  // Library modules.
  std::vector<std::string> entry_stmts;        // entry.cconf, one stmt each.

  std::map<std::string, std::string> Files() const {
    std::map<std::string, std::string> files = modules;
    std::string entry;
    for (const std::string& stmt : entry_stmts) {
      entry += stmt;
    }
    files["entry.cconf"] = entry;
    return files;
  }
};

// Expressions are typed: each is drawn for a type, names are read only at
// the type they were bound with, and list literals hold one type, so most
// programs run to their export. min(), max() and sorted() see homogeneous
// operands, indices stay in range and divisors are never zero. Errors come
// from a few deliberate draws: an undefined name, a wrong-arity call, a
// `break` outside any loop, a random assert, a missing module or symbol.
//
// Each expression draws from rng_ at most once: where a construct needs
// several values, they are drawn into named locals in source order, so the
// programs (and kGoldenDigest) do not depend on the compiler's order of
// evaluation of operands.
class ProgGen {
 public:
  explicit ProgGen(uint64_t seed) : rng_(seed) {}

  GenProgram Generate() {
    GenProgram program;
    bool with_lib = rng_.NextBool(0.4);
    if (with_lib) {
      std::vector<std::string> lib_stmts;
      Ty lib0 = AnyTy();
      lib_stmts.push_back("LIB0 = " + Literal(lib0) + "\n");
      vars_ = {{"LIB0", lib0}};
      fns_.clear();
      int n = 2 + static_cast<int>(rng_.NextBounded(4));
      for (int i = 0; i < n; ++i) {
        lib_stmts.push_back(Stmt(0, 0, false));
      }
      std::string lib;
      for (const std::string& stmt : lib_stmts) {
        lib += stmt;
      }
      program.modules["lib.cinc"] = lib;
      lib_vars_ = vars_;
      lib_fns_ = fns_;
    }

    vars_.clear();
    fns_.clear();
    if (with_lib) {
      switch (rng_.NextBounded(4)) {
        case 0:
          program.entry_stmts.push_back("import_python(\"lib.cinc\")\n");
          vars_ = lib_vars_;
          fns_ = lib_fns_;
          break;
        case 1: {
          // Single-symbol import.
          if (!lib_vars_.empty() && rng_.NextBool(0.8)) {
            const Var& symbol = lib_vars_[rng_.NextBounded(lib_vars_.size())];
            program.entry_stmts.push_back(
                "import_python(\"lib.cinc\", \"" + symbol.name + "\")\n");
            vars_.push_back(symbol);
          } else {
            program.entry_stmts.push_back(
                "import_python(\"lib.cinc\", \"no_such_symbol\")\n");
          }
          break;
        }
        case 2:
          program.entry_stmts.push_back(
              "import_python(\"lib.cinc\", \"*\")\n");
          vars_ = lib_vars_;
          fns_ = lib_fns_;
          break;
        default:
          // Import of a missing module: a compile error.
          if (rng_.NextBool(0.1)) {
            program.entry_stmts.push_back(
                "import_python(\"missing.cinc\")\n");
          } else {
            program.entry_stmts.push_back("import_python(\"lib.cinc\")\n");
            vars_ = lib_vars_;
            fns_ = lib_fns_;
          }
          break;
      }
    }

    Ty v0 = AnyTy();
    program.entry_stmts.push_back("v0 = " + Literal(v0) + "\n");
    vars_.push_back({"v0", v0});
    int n = 3 + static_cast<int>(rng_.NextBounded(7));
    for (int i = 0; i < n; ++i) {
      program.entry_stmts.push_back(Stmt(0, 0, false));
    }
    program.entry_stmts.push_back(ExportStmt());
    return program;
  }

 private:
  // The static type of an expression. A list holds ints.
  enum class Ty { kInt, kDouble, kString, kBool, kNone, kList, kDict };
  static constexpr int kTys = 7;

  struct Var {
    std::string name;
    Ty ty;
  };

  std::string Indent(int level) { return std::string(4 * level, ' '); }

  std::string FreshVar() {
    return StrFormat("v%d", next_id_++);
  }

  Ty AnyTy() { return static_cast<Ty>(rng_.NextBounded(kTys)); }

  std::string Literal(Ty ty) {
    switch (ty) {
      case Ty::kInt:
        return StrFormat("%d", static_cast<int>(rng_.NextBounded(40)));
      case Ty::kDouble: {
        static const char* kDoubles[] = {"0.5", "1.25", "2.0", "3.75", "0.125"};
        return kDoubles[rng_.NextBounded(5)];
      }
      case Ty::kString: {
        static const char* kStrings[] = {"\"a\"", "\"bee\"", "\"cfg\"",
                                         "\"\"", "\"zz\""};
        return kStrings[rng_.NextBounded(5)];
      }
      case Ty::kBool:
        return rng_.NextBool(0.5) ? "True" : "False";
      case Ty::kNone:
        return "None";
      case Ty::kList: {
        std::string first = Literal(Ty::kInt);
        std::string second = Literal(Ty::kInt);
        return "[" + first + ", " + second + "]";
      }
      case Ty::kDict: {
        std::string a = Literal(Ty::kInt);
        std::string b = Literal(Ty::kString);
        return "{\"a\": " + a + ", \"b\": " + b + "}";
      }
    }
    return "None";
  }

  // A name bound at `ty` (a literal when there is none); rarely an
  // undefined name, so error messages are compared too. `from` is the
  // first index of vars_ a name may come from.
  std::string Name(Ty ty, size_t from = 0) {
    if (rng_.NextBool(0.005)) {
      return "undefined_name";
    }
    std::vector<const Var*> bound;
    for (size_t i = from; i < vars_.size(); ++i) {
      if (vars_[i].ty == ty) {
        bound.push_back(&vars_[i]);
      }
    }
    if (bound.empty()) {
      return Literal(ty);
    }
    return bound[rng_.NextBounded(bound.size())]->name;
  }

  std::string Expr(int depth, Ty ty) {
    if (depth <= 0 || rng_.NextBool(0.35)) {
      return rng_.NextBool(0.5) ? Literal(ty) : Name(ty);
    }
    switch (rng_.NextBounded(6)) {
      case 0:
      case 1:
        return Operator(depth, ty);
      case 2: {  // Ternary.
        std::string value = Expr(depth - 1, ty);
        Ty cond_ty = AnyTy();
        std::string cond = Expr(depth - 1, cond_ty);
        std::string other = Expr(depth - 1, ty);
        return "(" + value + " if " + cond + " else " + other + ")";
      }
      case 3:  // Attribute on a dict literal.
        return "({\"k\": " + Expr(depth - 1, ty) + "}.k)";
      case 4: {  // In-range index into a list literal.
        std::string first = Expr(depth - 1, ty);
        std::string second = Expr(depth - 1, ty);
        int index = static_cast<int>(rng_.NextBounded(2));
        return "([" + first + ", " + second + "][" + StrFormat("%d", index) +
               "])";
      }
      default:
        return Call(depth, ty);
    }
  }

  // An int that is never 0.
  std::string Divisor(int depth) {
    return "(abs(" + Expr(depth - 1, Ty::kInt) + ") + 1)";
  }

  std::string Operator(int depth, Ty ty) {
    switch (ty) {
      case Ty::kInt: {
        static const char* kOps[] = {"+", "-", "*", "//", "%"};
        std::string lhs = Expr(depth - 1, Ty::kInt);
        const char* op = kOps[rng_.NextBounded(5)];
        std::string rhs = op[0] == '/' || op[0] == '%'
                              ? Divisor(depth)
                              : Expr(depth - 1, Ty::kInt);
        return "(" + lhs + " " + op + " " + rhs + ")";
      }
      case Ty::kDouble: {
        static const char* kOps[] = {"+", "-", "*", "/"};
        std::string lhs = Expr(depth - 1, Ty::kDouble);
        const char* op = kOps[rng_.NextBounded(4)];
        std::string rhs =
            op[0] == '/' ? Divisor(depth) : Expr(depth - 1, Ty::kDouble);
        return "(" + lhs + " " + op + " " + rhs + ")";
      }
      case Ty::kString: {  // One side literal: strings grow linearly.
        std::string lhs = Expr(depth - 1, Ty::kString);
        std::string literal = Literal(Ty::kString);
        return rng_.NextBool(0.5) ? "(" + lhs + " + " + literal + ")"
                                  : "(" + literal + " + " + lhs + ")";
      }
      case Ty::kBool:
        return Predicate(depth);
      case Ty::kList:
        return "sorted(" + Expr(depth - 1, Ty::kList) + ")";
      case Ty::kDict: {
        Ty a_ty = AnyTy();
        std::string a = Expr(depth - 1, a_ty);
        Ty b_ty = AnyTy();
        std::string b = Expr(depth - 1, b_ty);
        return "{\"a\": " + a + ", \"b\": " + b + "}";
      }
      case Ty::kNone:
        break;
    }
    return "None";
  }

  std::string Predicate(int depth) {
    switch (rng_.NextBounded(5)) {
      case 0: {  // Ordering, between numbers or between strings.
        static const char* kOps[] = {"<", "<=", ">", ">="};
        static const Ty kOrdered[] = {Ty::kInt, Ty::kDouble, Ty::kString};
        Ty ty = kOrdered[rng_.NextBounded(3)];
        std::string lhs = Expr(depth - 1, ty);
        const char* op = kOps[rng_.NextBounded(4)];
        std::string rhs = Expr(depth - 1, ty);
        return "(" + lhs + " " + op + " " + rhs + ")";
      }
      case 1: {  // Equality, within one type.
        Ty ty = AnyTy();
        std::string lhs = Expr(depth - 1, ty);
        const char* op = rng_.NextBool(0.5) ? "==" : "!=";
        std::string rhs = Expr(depth - 1, ty);
        return "(" + lhs + " " + op + " " + rhs + ")";
      }
      case 2: {  // Membership: an int in a list, a string in a string or
                 // in a dict's keys.
        static const Ty kContainers[] = {Ty::kList, Ty::kString, Ty::kDict};
        Ty container = kContainers[rng_.NextBounded(3)];
        std::string item =
            Expr(depth - 1, container == Ty::kList ? Ty::kInt : Ty::kString);
        const char* op = rng_.NextBool(0.5) ? "in" : "not in";
        std::string rhs = Expr(depth - 1, container);
        return "(" + item + " " + op + " " + rhs + ")";
      }
      case 3: {
        Ty ty = AnyTy();
        return "(not " + Expr(depth - 1, ty) + ")";
      }
      default: {
        std::string lhs = Expr(depth - 1, Ty::kBool);
        const char* op = rng_.NextBool(0.5) ? "and" : "or";
        std::string rhs = Expr(depth - 1, Ty::kBool);
        return "(" + lhs + " " + op + " " + rhs + ")";
      }
    }
  }

  std::string Call(int depth, Ty ty) {
    switch (ty) {
      case Ty::kInt:
        switch (rng_.NextBounded(5)) {
          case 0: {
            static const Ty kSized[] = {Ty::kString, Ty::kList, Ty::kDict};
            Ty sized = kSized[rng_.NextBounded(3)];
            return "len(" + Expr(depth - 1, sized) + ")";
          }
          case 1:
            return "abs(" + Expr(depth - 1, Ty::kInt) + ")";
          case 2:
            return "int(" + Expr(depth - 1, Ty::kDouble) + ")";
          case 3:
            return MinMax(depth, Ty::kInt);
          default:
            return UserCall(depth);
        }
      case Ty::kDouble:
        return rng_.NextBool(0.5) ? "abs(" + Expr(depth - 1, Ty::kDouble) + ")"
                                  : MinMax(depth, Ty::kDouble);
      case Ty::kString: {
        if (rng_.NextBool(0.5)) {
          return MinMax(depth, Ty::kString);
        }
        Ty ty = AnyTy();
        return "str(" + Expr(depth - 1, ty) + ")";
      }
      default:
        return Operator(depth, ty);
    }
  }

  std::string MinMax(int depth, Ty ty) {
    const char* fn = rng_.NextBool(0.5) ? "min" : "max";
    std::string first = Expr(depth - 1, ty);
    std::string second = Expr(depth - 1, ty);
    return std::string(fn) + "(" + first + ", " + second + ")";
  }

  struct Fn {
    std::string name;
    int params = 1;
    bool has_default = false;
    std::string kw_name;
  };

  // A call of a user function; every one takes and returns ints.
  std::string UserCall(int depth) {
    if (fns_.empty()) {
      return "abs(" + Expr(depth - 1, Ty::kInt) + ")";
    }
    const Fn& fn = fns_[rng_.NextBounded(fns_.size())];
    // Occasionally a wrong-arity call: binding errors must match too.
    if (rng_.NextBool(0.04)) {
      std::string call = fn.name + "(";
      for (int i = 0; i < 4; ++i) {
        call += (i > 0 ? ", " : "") + Expr(depth - 1, Ty::kInt);
      }
      return call + ")";
    }
    if (fn.has_default) {
      switch (rng_.NextBounded(3)) {
        case 0:
          return fn.name + "(" + Expr(depth - 1, Ty::kInt) + ")";
        case 1: {
          std::string first = Expr(depth - 1, Ty::kInt);
          std::string second = Expr(depth - 1, Ty::kInt);
          return fn.name + "(" + first + ", " + second + ")";
        }
        default: {
          std::string first = Expr(depth - 1, Ty::kInt);
          std::string kw_value = Expr(depth - 1, Ty::kInt);
          return fn.name + "(" + first + ", " + fn.kw_name + "=" + kw_value +
                 ")";
        }
      }
    }
    std::string call = fn.name + "(";
    for (int i = 0; i < fn.params; ++i) {
      call += (i > 0 ? ", " : "") + Expr(depth - 1, Ty::kInt);
    }
    return call + ")";
  }

  // A fresh name bound to a value of a random type.
  std::string Assign(int indent, int depth) {
    std::string var = FreshVar();
    Ty ty = AnyTy();
    std::string stmt = Indent(indent) + var + " = " + Expr(depth, ty) + "\n";
    vars_.push_back({var, ty});
    return stmt;
  }

  // One statement, possibly a multi-line block, at `indent`.
  std::string Stmt(int indent, int loop_depth, bool in_fn) {
    int pick = static_cast<int>(rng_.NextBounded(20));
    switch (pick) {
      case 0:
      case 1:
      case 2:
      case 3:  // Fresh assignment.
        return Assign(indent, 2);
      case 4: {  // Reassignment or augmented assignment, at the name's type.
        // A function assigns only its own locals: a global it assigned
        // would be local to the whole body.
        size_t from = in_fn ? fn_locals_ : 0;
        std::vector<const Var*> targets;
        for (size_t i = from; i < vars_.size(); ++i) {
          targets.push_back(&vars_[i]);
        }
        if (targets.empty()) {
          return Assign(indent, 2);
        }
        Var target = *targets[rng_.NextBounded(targets.size())];
        bool number = target.ty == Ty::kInt || target.ty == Ty::kDouble;
        if ((number || target.ty == Ty::kString) && rng_.NextBool(0.5)) {
          const char* aug = rng_.NextBool(0.5) || !number ? "+=" : "-=";
          std::string value = target.ty == Ty::kString
                                  ? Literal(Ty::kString)
                                  : Expr(1, target.ty);
          return Indent(indent) + target.name + " " + aug + " " + value + "\n";
        }
        return Indent(indent) + target.name + " = " + Expr(2, target.ty) + "\n";
      }
      case 5: {  // Container mutation through an index/attr target.
        std::string var = FreshVar();
        std::string n = Expr(1, Ty::kInt);
        std::string l0 = Expr(1, Ty::kInt);
        std::string l1 = Expr(1, Ty::kInt);
        std::string stmt = Indent(indent) + var + " = {\"n\": " + n +
                           ", \"l\": [" + l0 + ", " + l1 + "]}\n";
        vars_.push_back({var, Ty::kDict});
        if (rng_.NextBool(0.5)) {
          stmt += Indent(indent) + var + "[\"n\"] = " + Expr(1, Ty::kInt) +
                  "\n";
        } else {
          int index = static_cast<int>(rng_.NextBounded(2));
          std::string value = Expr(1, Ty::kInt);
          stmt += Indent(indent) + var + ".l[" + StrFormat("%d", index) +
                  "] = " + value + "\n";
        }
        return stmt;
      }
      case 6:
      case 7: {  // if / elif / else.
        Ty cond_ty = AnyTy();
        std::string stmt =
            Indent(indent) + "if " + Expr(2, cond_ty) + ":\n";
        stmt += Block(indent + 1, loop_depth, in_fn);
        if (rng_.NextBool(0.3)) {
          Ty elif_ty = AnyTy();
          stmt += Indent(indent) + "elif " + Expr(1, elif_ty) + ":\n";
          stmt += Block(indent + 1, loop_depth, in_fn);
        }
        if (rng_.NextBool(0.5)) {
          stmt += Indent(indent) + "else:\n";
          stmt += Block(indent + 1, loop_depth, in_fn);
        }
        return stmt;
      }
      case 8:
      case 9: {  // for loop (bounded; sometimes unpacking, sometimes dict).
        if (indent >= 2) {
          return Indent(indent) + "pass\n";
        }
        std::string var = FreshVar();
        std::string stmt;
        switch (rng_.NextBounded(4)) {
          case 0:
            stmt = Indent(indent) + "for " + var + " in range(" +
                   StrFormat("%d", 1 + static_cast<int>(rng_.NextBounded(6))) +
                   "):\n";
            vars_.push_back({var, Ty::kInt});
            break;
          case 1: {
            Ty ty = AnyTy();
            std::string first = Expr(1, ty);
            std::string second = Expr(1, ty);
            stmt = Indent(indent) + "for " + var + " in [" + first + ", " +
                   second + "]:\n";
            vars_.push_back({var, ty});
            break;
          }
          case 2: {
            std::string var2 = FreshVar();
            std::string a0 = Expr(1, Ty::kInt);
            std::string a1 = Expr(1, Ty::kInt);
            std::string b0 = Expr(1, Ty::kInt);
            std::string b1 = Expr(1, Ty::kInt);
            stmt = Indent(indent) + "for " + var + ", " + var2 + " in [[" +
                   a0 + ", " + a1 + "], [" + b0 + ", " + b1 + "]]:\n";
            vars_.push_back({var, Ty::kInt});
            vars_.push_back({var2, Ty::kInt});
            break;
          }
          default: {
            Ty ty = AnyTy();
            stmt = Indent(indent) + "for " + var + " in {\"a\": 1, \"b\": " +
                   Expr(1, ty) + "}:\n";
            vars_.push_back({var, Ty::kString});
            break;
          }
        }
        stmt += Block(indent + 1, loop_depth + 1, in_fn);
        return stmt;
      }
      case 10: {  // Bounded while loop with a private counter.
        if (indent >= 2) {
          return Indent(indent) + "pass\n";
        }
        std::string counter = StrFormat("loop%d", next_id_++);
        std::string stmt = Indent(indent) + counter + " = 0\n";
        stmt += Indent(indent) + "while " + counter + " < " +
                StrFormat("%d", 1 + static_cast<int>(rng_.NextBounded(5))) +
                ":\n";
        stmt += Indent(indent + 1) + counter + " = " + counter + " + 1\n";
        stmt += Block(indent + 1, loop_depth + 1, in_fn);
        return stmt;
      }
      case 11:
      case 12: {  // Function definition (only at top level, like most CSL).
        if (indent > 0) {
          Ty ty = AnyTy();
          return Indent(indent) + Name(ty) + "\n";  // Expression statement.
        }
        return DefStmt();
      }
      case 13: {  // assert — usually true, sometimes a random condition.
        if (rng_.NextBool(0.7)) {
          return Indent(indent) + "assert 1 == 1, \"invariant\"\n";
        }
        std::string cond = Expr(1, Ty::kBool);
        std::string message = Expr(1, Ty::kString);
        return Indent(indent) + "assert " + cond + ", " + message + "\n";
      }
      case 14: {  // break/continue — valid in loops; rarely outside one,
                  // where the flow escapes the function or module.
        const char* kw = rng_.NextBool(0.5) ? "break" : "continue";
        if (loop_depth > 0 || rng_.NextBool(0.1)) {
          return Indent(indent) + kw + "\n";
        }
        return Indent(indent) + "pass\n";
      }
      case 15: {  // Expression statement (side-effect-free, still evaluated).
        Ty ty = AnyTy();
        return Indent(indent) + Expr(2, ty) + "\n";
      }
      case 16: {
        if (in_fn) {
          return Indent(indent) + "return " + Expr(2, Ty::kInt) + "\n";
        }
        return Indent(indent) + "pass\n";
      }
      default:
        return Assign(indent, 1);
    }
  }

  // Names bound inside a block go out of scope after it: on the branch not
  // taken they would be undefined.
  std::string Block(int indent, int loop_depth, bool in_fn) {
    int n = 1 + static_cast<int>(rng_.NextBounded(2));
    std::string block;
    size_t vars_before = vars_.size();
    for (int i = 0; i < n; ++i) {
      block += Stmt(indent, loop_depth, in_fn);
    }
    vars_.resize(vars_before);
    return block;
  }

  std::string DefStmt() {
    Fn fn;
    fn.name = StrFormat("f%d", next_id_++);
    fn.params = 1 + static_cast<int>(rng_.NextBounded(2));
    std::string params;
    std::vector<Var> saved_vars = vars_;
    fn_locals_ = vars_.size();
    for (int i = 0; i < fn.params; ++i) {
      std::string p = StrFormat("p%d_%d", next_id_, i);
      params += (i > 0 ? ", " : "") + p;
      vars_.push_back({p, Ty::kInt});
    }
    if (rng_.NextBool(0.5)) {
      fn.has_default = true;
      fn.kw_name = StrFormat("d%d", next_id_);
      params += ", " + fn.kw_name + "=" + Literal(Ty::kInt);
      vars_.push_back({fn.kw_name, Ty::kInt});
    }
    std::string stmt = "def " + fn.name + "(" + params + "):\n";
    int n = static_cast<int>(rng_.NextBounded(3));
    for (int i = 0; i < n; ++i) {
      stmt += Stmt(1, 0, true);
    }
    // Nested closure capture, sometimes.
    if (rng_.NextBool(0.15)) {
      std::string inner = StrFormat("g%d", next_id_++);
      stmt += Indent(1) + "def " + inner + "(x):\n";
      stmt += Indent(2) + "return x + " + Expr(1, Ty::kInt) + "\n";
      stmt += Indent(1) + "return " + inner + "(" + Expr(1, Ty::kInt) + ")\n";
    } else {
      stmt += Indent(1) + "return " + Expr(2, Ty::kInt) + "\n";
    }
    vars_ = std::move(saved_vars);
    fns_.push_back(fn);
    return stmt;
  }

  std::string ExportStmt() {
    if (rng_.NextBool(0.25)) {
      Ty ty = AnyTy();
      return "export(\"out.json\", {\"v\": " + Expr(2, ty) + "})\n";
    }
    std::string dict;
    int n = 1 + static_cast<int>(rng_.NextBounded(3));
    for (int i = 0; i < n; ++i) {
      Ty ty = AnyTy();
      std::string value = rng_.NextBool(0.7) ? Name(ty) : Expr(1, ty);
      dict += StrFormat("%s\"k%d\": %s", i > 0 ? ", " : "", i, value.c_str());
    }
    return "export_if_last({" + dict + "})\n";
  }

  Rng rng_;
  int next_id_ = 1;
  std::vector<Var> vars_;
  size_t fn_locals_ = 0;  // vars_ from here on are the function's locals.
  std::vector<Fn> fns_;
  std::vector<Var> lib_vars_;
  std::vector<Fn> lib_fns_;
};

// --- Harness ----------------------------------------------------------------

using Files = std::map<std::string, std::string>;

struct Outcome {
  Status status = OkStatus();
  std::vector<std::string> artifacts;
};

Outcome Collect(const Result<CompileOutput>& output) {
  Outcome outcome;
  if (!output.ok()) {
    outcome.status = output.status();
    return outcome;
  }
  for (const CompiledConfig& config : output->configs) {
    outcome.artifacts.push_back(config.path + "\n" +
                                config.content.DumpPretty());
  }
  return outcome;
}

// The oracle: a compiler, and so a cache, built for one program alone.
Outcome CompileFresh(const Files& files) {
  InMemorySources sources;
  for (const auto& [path, content] : files) {
    sources.Put(path, content);
  }
  ConfigCompiler compiler(sources.AsReader());
  return Collect(compiler.Compile("entry.cconf"));
}

// One compiler over one shared cache, kept across programs: each program's
// files replace the previous program's under the same paths, so the cache
// must notice every edit, addition and removal.
class SharedCompiler {
 public:
  SharedCompiler()
      : compiler_(
            [this](const std::string& path) -> Result<std::string> {
              auto it = files_.find(path);
              if (it == files_.end()) {
                return NotFoundError("no such source file: " + path);
              }
              return it->second;
            },
            CompilerOptions{&cache_, nullptr}) {}

  Outcome Compile(const Files& files) {
    files_ = files;
    return Collect(compiler_.Compile("entry.cconf"));
  }

 private:
  Files files_;
  CompiledUnitCache cache_;
  ConfigCompiler compiler_;
};

std::optional<std::string> Compare(const char* label, const Outcome& got,
                                   const Outcome& want) {
  if (!(got.status == want.status)) {
    return std::string(label) + " status diverged:\n  cached: " +
           got.status.ToString() + "\n  fresh:  " + want.status.ToString();
  }
  if (got.artifacts != want.artifacts) {
    std::string diff = std::string(label) + " artifacts diverged:\n";
    for (size_t i = 0;
         i < std::max(got.artifacts.size(), want.artifacts.size()); ++i) {
      std::string g = i < got.artifacts.size() ? got.artifacts[i] : "<none>";
      std::string w = i < want.artifacts.size() ? want.artifacts[i] : "<none>";
      if (g != w) {
        diff += "--- cached ---\n" + g + "\n--- fresh ---\n" + w + "\n";
      }
    }
    return diff;
  }
  return std::nullopt;
}

// Empty when `shared` (first compile, then the memo replay) agrees with a
// fresh compiler on `files`; otherwise a human-readable description.
std::optional<std::string> Divergence(SharedCompiler& shared,
                                      const Files& files) {
  Outcome fresh = CompileFresh(files);
  Outcome first = shared.Compile(files);
  Outcome replay = shared.Compile(files);
  if (auto diff = Compare("first compile", first, fresh)) {
    return diff;
  }
  return Compare("memo replay", replay, fresh);
}

std::string DescribeFiles(const Files& files) {
  std::string out;
  for (const auto& [path, content] : files) {
    out += "==== " + path + " ====\n" + content;
  }
  return out;
}

TEST(CslFuzz, SharedCacheMatchesFreshCompilerOnSeededPrograms) {
  SharedCompiler shared;
  Files previous;
  int failing_programs = 0;  // Programs whose (matching) outcome is an error.
  for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
    ProgGen gen(seed);
    GenProgram program = gen.Generate();
    Files files = program.Files();
    auto divergence = Divergence(shared, files);
    if (!divergence.has_value()) {
      Status status = CompileFresh(files).status;
      // The generator stays well inside the parser's depth cap.
      EXPECT_EQ(status.message().find("nesting deeper than"),
                std::string::npos)
          << "seed " << seed;
      if (!status.ok()) {
        ++failing_programs;
      }
      previous = std::move(files);
      continue;
    }

    // Diverged: ddmin-shrink the entry statement list to a minimal
    // reproducer. Each probe replays the cache history that matters — the
    // previous program, then the candidate — on a new shared compiler.
    auto diverges = [&](const GenProgram& candidate) {
      SharedCompiler probe;
      probe.Compile(previous);
      return Divergence(probe, candidate.Files());
    };
    auto subset = [&](const std::vector<size_t>& keep) {
      GenProgram candidate;
      candidate.modules = program.modules;
      for (size_t index : keep) {
        candidate.entry_stmts.push_back(program.entry_stmts[index]);
      }
      return candidate;
    };
    int probes = 0;
    std::vector<size_t> kept = DdminSubset(
        program.entry_stmts.size(),
        [&](const std::vector<size_t>& keep) {
          return diverges(subset(keep)).has_value();
        },
        400, &probes);
    GenProgram shrunk = subset(kept);
    auto shrunk_divergence = diverges(shrunk);
    FAIL() << "cached compile diverged from a fresh one on seed " << seed
           << " (ddmin: " << program.entry_stmts.size() << " -> "
           << kept.size() << " stmts, " << probes << " probes)\n"
           << (shrunk_divergence.has_value() ? *shrunk_divergence
                                             : *divergence)
           << "\nprevious program:\n"
           << DescribeFiles(previous) << "\nshrunk program:\n"
           << DescribeFiles(shrunk.Files());
  }
  // The generator must produce a healthy mix: mostly valid programs, but
  // enough failing ones that error-message equality is really exercised.
  EXPECT_GT(failing_programs, kPrograms / 20);
  EXPECT_LT(failing_programs, kPrograms / 2);
}

// The fresh compiler's outcomes (JSON artifacts or the full error) for all
// kPrograms seeded programs, folded into one SHA-256. An interpreter change
// that alters any output or error message changes it. If the change is
// intended, run
//   build/tests/csl_fuzz_test --gtest_filter=CslFuzz.FreshOutcomesMatchGoldenDigest
// and replace the constant with the digest the failure reports. Recorded
// when the generator was typed, by running this test against the
// interpreter as it stood before that change.
constexpr char kGoldenDigest[] =
    "861b6ba7274c8a2ed146aca7a8d1514e09721fedb9f187603f4aab0d9f99b194";

TEST(CslFuzz, FreshOutcomesMatchGoldenDigest) {
  Sha256 digest;
  for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
    ProgGen gen(seed);
    Outcome fresh = CompileFresh(gen.Generate().Files());
    std::string record = fresh.status.ToString();
    for (const std::string& artifact : fresh.artifacts) {
      record += "\n" + artifact;
    }
    // Length-prefixed, so record boundaries cannot shift between programs.
    digest.Update(StrFormat("%zu:", record.size()));
    digest.Update(record);
  }
  EXPECT_EQ(digest.Finish().ToHex(), kGoldenDigest);
}

// --- Negative-operand arithmetic ---------------------------------------------

// The family above divides only by positive values, so its digest pins
// little arithmetic on negative operands. This one binds only defined names
// and divides by nonzero values, so nearly every program compiles, and it does
// int arithmetic on negative operands through //, %, unary - and abs(),
// where Python's floor semantics differ from C++'s truncation. Each
// expression draws from the generator at most once, so the programs do not
// depend on the compiler's order of evaluation.
class NegArithGen {
 public:
  explicit NegArithGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string entry;
    int n = 4 + static_cast<int>(rng_.NextBounded(7));
    for (int i = 0; i < n; ++i) {
      std::string var = StrFormat("n%d", i);
      entry += var + " = " + Expr(3) + "\n";
      vars_.push_back(var);
    }
    entry += "export_if_last({";
    for (size_t i = 0; i < vars_.size(); ++i) {
      entry += StrFormat("%s\"%s\": %s", i > 0 ? ", " : "", vars_[i].c_str(),
                         vars_[i].c_str());
    }
    return entry + "})\n";
  }

 private:
  std::string Literal() {
    return StrFormat("%d", static_cast<int>(rng_.NextInRange(-20, 20)));
  }

  // A value that is never 0: a nonzero literal or abs(x) + 1, often negated.
  std::string Divisor(int depth) {
    std::string magnitude =
        depth <= 0 || rng_.NextBool(0.5)
            ? StrFormat("%d", static_cast<int>(rng_.NextInRange(1, 9)))
            : "(abs(" + Expr(depth - 1) + ") + 1)";
    return rng_.NextBool(0.6) ? "(-" + magnitude + ")" : magnitude;
  }

  std::string Expr(int depth) {
    if (depth <= 0 || rng_.NextBool(0.25)) {
      if (!vars_.empty() && rng_.NextBool(0.5)) {
        return vars_[rng_.NextBounded(vars_.size())];
      }
      return Literal();
    }
    uint64_t pick = rng_.NextBounded(7);
    std::string operand = Expr(depth - 1);
    if (pick < 2) {
      return "(" + operand + " // " + Divisor(depth - 1) + ")";
    }
    if (pick < 4) {
      return "(" + operand + " % " + Divisor(depth - 1) + ")";
    }
    if (pick == 4) {
      return "(-" + operand + ")";
    }
    if (pick == 5) {
      return "abs(" + operand + ")";
    }
    static const char* kOps[] = {"+", "-", "*"};
    std::string op = kOps[rng_.NextBounded(3)];
    return "(" + operand + " " + op + " " +
           (rng_.NextBool(0.5) ? Literal() : Expr(depth - 1)) + ")";
  }

  Rng rng_;
  std::vector<std::string> vars_;
};

constexpr int kNegArithPrograms = 400;

// The fresh compiler's outcomes for the kNegArithPrograms programs, folded
// into one SHA-256 like kGoldenDigest. Recorded before this family was
// first committed, from an interpreter whose // and % already floored; a
// build that truncates either operator instead fails it. Update it the same
// way as kGoldenDigest, and only for an intended change of arithmetic.
constexpr char kNegArithDigest[] =
    "e954a568520f54ce9e40d0aace1c03610d001444a4241dc5e52d787824b9608b";

TEST(CslFuzz, NegativeOperandArithmeticMatchesGoldenDigest) {
  Sha256 digest;
  int failing_programs = 0;
  for (uint64_t seed = 1; seed <= kNegArithPrograms; ++seed) {
    NegArithGen gen(seed);
    Outcome fresh = CompileFresh({{"entry.cconf", gen.Generate()}});
    if (!fresh.status.ok()) {
      ++failing_programs;
    }
    std::string record = fresh.status.ToString();
    for (const std::string& artifact : fresh.artifacts) {
      record += "\n" + artifact;
    }
    digest.Update(StrFormat("%zu:", record.size()));
    digest.Update(record);
  }
  EXPECT_LE(failing_programs, kNegArithPrograms / 10);
  EXPECT_EQ(digest.Finish().ToHex(), kNegArithDigest);
}

TEST(CslFuzz, MutatedSourcesNeverCrashAndMatchFreshCompiler) {
  SharedCompiler shared;
  for (uint64_t seed = 1; seed <= kMutations; ++seed) {
    ProgGen gen(seed);
    GenProgram program = gen.Generate();
    Files files = program.Files();
    std::string& entry = files["entry.cconf"];
    if (entry.empty()) {
      continue;
    }
    Rng mut(seed * 7919);
    FlipBits(&entry, mut);
    auto divergence = Divergence(shared, files);
    EXPECT_FALSE(divergence.has_value())
        << "mutated seed " << seed << ": " << *divergence << "\n"
        << DescribeFiles(files);
  }
}

}  // namespace
}  // namespace configerator
