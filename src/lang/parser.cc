#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "src/lang/ast.h"
#include "src/lang/lexer.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

bool IsKeyword(std::string_view word) {
  static constexpr std::string_view kKeywords[] = {
      "def",   "return", "if",   "elif",     "else", "for",  "in",
      "while", "break",  "continue", "pass", "assert", "not", "and",
      "or",    "True",   "False", "None",
  };
  for (std::string_view k : kKeywords) {
    if (k == word) {
      return true;
    }
  }
  return false;
}

class CslParser {
 public:
  CslParser(std::vector<CslToken> tokens, std::string origin,
            std::vector<LintDiagnostic>* lint_diags)
      : tokens_(std::move(tokens)), origin_(std::move(origin)),
        lint_diags_(lint_diags) {}

  Result<std::shared_ptr<Module>> Run() {
    auto module = std::make_shared<Module>();
    module->path = origin_;
    while (!At(CslToken::Kind::kEof)) {
      ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      module->body.push_back(std::move(stmt));
    }
    return module;
  }

 private:
  const CslToken& Cur() const { return tokens_[pos_]; }

  bool At(CslToken::Kind kind) const { return Cur().kind == kind; }
  bool AtOp(std::string_view op) const { return Cur().IsOp(op); }
  bool AtName(std::string_view name) const { return Cur().IsName(name); }

  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }

  Status Error(const std::string& msg) const {
    return InvalidArgumentError(
        StrFormat("%s:%d: %s (near '%s')", origin_.c_str(), Cur().line,
                  msg.c_str(), Cur().text.c_str()));
  }

  Status ExpectOp(std::string_view op) {
    if (!AtOp(op)) {
      return Error(StrFormat("expected '%s'", std::string(op).c_str()));
    }
    Advance();
    return OkStatus();
  }

  // Rejects nesting that would put an AST node deeper than kMaxCslAstDepth
  // when `height` more levels hang below the current parse position.
  Status CheckDepth(int height) const {
    if (depth_ + height > kMaxCslAstDepth) {
      return Error(StrFormat("nesting deeper than %d levels", kMaxCslAstDepth));
    }
    return OkStatus();
  }

  // One level of recursive descent (a statement, an expression, a nested
  // unary operator or elif). Bounds the parser's own stack.
  class Nested {
   public:
    explicit Nested(CslParser* parser) : parser_(parser) { ++parser_->depth_; }
    ~Nested() { --parser_->depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    CslParser* parser_;
  };

  // Sets `e.height` from its children, which are complete, and rejects the
  // node if its subtree would reach past kMaxCslAstDepth. Called as each
  // node is finished, so a too-deep tree is refused before it exists —
  // including left-associative and postfix chains, which the parser builds
  // by iteration rather than recursion.
  Status Seal(Expr& e) const {
    int below = 0;
    auto see = [&below](const ExprPtr& child) {
      if (child != nullptr) {
        below = std::max(below, static_cast<int>(child->height));
      }
    };
    for (const ExprPtr& item : e.items) {
      see(item);
    }
    for (const auto& [key, value] : e.pairs) {
      see(key);
      see(value);
    }
    for (const auto& [name, value] : e.kwargs) {
      see(value);
    }
    see(e.lhs);
    see(e.rhs);
    see(e.third);
    e.height = static_cast<uint16_t>(below + 1);
    return CheckDepth(e.height);
  }

  Status ExpectNewline() {
    if (!At(CslToken::Kind::kNewline)) {
      return Error("expected end of statement");
    }
    Advance();
    return OkStatus();
  }

  ExprPtr NewExpr(Expr::Kind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = Cur().line;
    return e;
  }

  StmtPtr NewStmt(Stmt::Kind kind) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->line = Cur().line;
    return s;
  }

  // block: NEWLINE INDENT stmt+ DEDENT
  Result<std::vector<StmtPtr>> ParseBlock() {
    RETURN_IF_ERROR(ExpectOp(":"));
    RETURN_IF_ERROR(ExpectNewline());
    if (!At(CslToken::Kind::kIndent)) {
      return Error("expected indented block");
    }
    Advance();
    std::vector<StmtPtr> body;
    while (!At(CslToken::Kind::kDedent) && !At(CslToken::Kind::kEof)) {
      ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      body.push_back(std::move(stmt));
    }
    if (At(CslToken::Kind::kDedent)) {
      Advance();
    }
    if (body.empty()) {
      return Error("empty block");
    }
    return body;
  }

  Result<StmtPtr> ParseStatement() {
    Nested nested(this);
    RETURN_IF_ERROR(CheckDepth(0));
    if (At(CslToken::Kind::kName)) {
      const std::string& word = Cur().text;
      if (word == "def") {
        return ParseDef();
      }
      if (word == "if") {
        return ParseIf();
      }
      if (word == "for") {
        return ParseFor();
      }
      if (word == "while") {
        return ParseWhile();
      }
      if (word == "return") {
        auto stmt = NewStmt(Stmt::Kind::kReturn);
        Advance();
        if (!At(CslToken::Kind::kNewline)) {
          ASSIGN_OR_RETURN(stmt->target, ParseExpression());
        }
        RETURN_IF_ERROR(ExpectNewline());
        return stmt;
      }
      if (word == "assert") {
        auto stmt = NewStmt(Stmt::Kind::kAssert);
        Advance();
        ASSIGN_OR_RETURN(stmt->target, ParseExpression());
        if (AtOp(",")) {
          Advance();
          ASSIGN_OR_RETURN(stmt->value, ParseExpression());
        }
        RETURN_IF_ERROR(ExpectNewline());
        return stmt;
      }
      if (word == "pass" || word == "break" || word == "continue") {
        auto stmt = NewStmt(word == "pass" ? Stmt::Kind::kPass
                            : word == "break" ? Stmt::Kind::kBreak
                                              : Stmt::Kind::kContinue);
        Advance();
        RETURN_IF_ERROR(ExpectNewline());
        return stmt;
      }
    }
    // Expression statement or assignment.
    ASSIGN_OR_RETURN(ExprPtr first, ParseExpression());
    if (AtOp("=")) {
      Advance();
      auto stmt = NewStmt(Stmt::Kind::kAssign);
      RETURN_IF_ERROR(ValidateAssignTarget(*first));
      stmt->target = std::move(first);
      ASSIGN_OR_RETURN(stmt->value, ParseExpression());
      RETURN_IF_ERROR(ExpectNewline());
      return stmt;
    }
    for (std::string_view aug : {"+=", "-=", "*=", "/="}) {
      if (AtOp(aug)) {
        Advance();
        auto stmt = NewStmt(Stmt::Kind::kAugAssign);
        RETURN_IF_ERROR(ValidateAssignTarget(*first));
        stmt->op = std::string(aug.substr(0, 1));
        stmt->target = std::move(first);
        ASSIGN_OR_RETURN(stmt->value, ParseExpression());
        RETURN_IF_ERROR(ExpectNewline());
        return stmt;
      }
    }
    auto stmt = NewStmt(Stmt::Kind::kExpr);
    stmt->target = std::move(first);
    RETURN_IF_ERROR(ExpectNewline());
    return stmt;
  }

  Status ValidateAssignTarget(const Expr& e) {
    if (e.kind == Expr::Kind::kName || e.kind == Expr::Kind::kAttr ||
        e.kind == Expr::Kind::kIndex) {
      return OkStatus();
    }
    return Error("invalid assignment target");
  }

  Result<StmtPtr> ParseDef() {
    auto stmt = NewStmt(Stmt::Kind::kDef);
    Advance();  // def
    if (!At(CslToken::Kind::kName) || IsKeyword(Cur().text)) {
      return Error("expected function name");
    }
    auto def = std::make_unique<FunctionDefStmt>();
    def->name = Cur().text;
    def->line = Cur().line;
    def->origin = origin_;
    Advance();
    RETURN_IF_ERROR(ExpectOp("("));
    bool saw_default = false;
    while (!AtOp(")")) {
      if (!At(CslToken::Kind::kName) || IsKeyword(Cur().text)) {
        return Error("expected parameter name");
      }
      def->params.push_back(Cur().text);
      Advance();
      if (AtOp("=")) {
        Advance();
        saw_default = true;
        ASSIGN_OR_RETURN(ExprPtr dflt, ParseExpression());
        def->defaults.push_back(std::move(dflt));
      } else {
        if (saw_default) {
          return Error("non-default parameter after default parameter");
        }
        def->defaults.push_back(nullptr);
      }
      if (AtOp(",")) {
        Advance();
      } else if (!AtOp(")")) {
        return Error("expected ',' or ')' in parameter list");
      }
    }
    Advance();  // ')'
    ASSIGN_OR_RETURN(def->body, ParseBlock());
    stmt->def = std::move(def);
    return stmt;
  }

  Result<StmtPtr> ParseIf() {
    Nested nested(this);  // An elif nests one level deeper.
    RETURN_IF_ERROR(CheckDepth(0));
    auto stmt = NewStmt(Stmt::Kind::kIf);
    Advance();  // if / elif
    ASSIGN_OR_RETURN(stmt->target, ParseExpression());
    ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    if (AtName("elif")) {
      ASSIGN_OR_RETURN(StmtPtr nested, ParseIf());
      stmt->orelse.push_back(std::move(nested));
    } else if (AtName("else")) {
      Advance();
      ASSIGN_OR_RETURN(stmt->orelse, ParseBlock());
    }
    return stmt;
  }

  Result<StmtPtr> ParseFor() {
    auto stmt = NewStmt(Stmt::Kind::kFor);
    Advance();  // for
    while (true) {
      if (!At(CslToken::Kind::kName) || IsKeyword(Cur().text)) {
        return Error("expected loop variable");
      }
      stmt->loop_vars.push_back(Cur().text);
      Advance();
      if (AtOp(",")) {
        Advance();
        continue;
      }
      break;
    }
    if (!AtName("in")) {
      return Error("expected 'in'");
    }
    Advance();
    ASSIGN_OR_RETURN(stmt->value, ParseExpression());
    ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  Result<StmtPtr> ParseWhile() {
    auto stmt = NewStmt(Stmt::Kind::kWhile);
    Advance();  // while
    ASSIGN_OR_RETURN(stmt->target, ParseExpression());
    ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  // expression: or_expr ['if' or_expr 'else' expression]
  Result<ExprPtr> ParseExpression() {
    Nested nested(this);
    RETURN_IF_ERROR(CheckDepth(0));
    ASSIGN_OR_RETURN(ExprPtr value, ParseOr());
    if (AtName("if")) {
      auto ternary = NewExpr(Expr::Kind::kTernary);
      Advance();
      ASSIGN_OR_RETURN(ternary->rhs, ParseOr());  // condition
      if (!AtName("else")) {
        return Error("expected 'else' in conditional expression");
      }
      Advance();
      ASSIGN_OR_RETURN(ternary->third, ParseExpression());
      ternary->lhs = std::move(value);
      RETURN_IF_ERROR(Seal(*ternary));
      return ternary;
    }
    return value;
  }

  Result<ExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AtName("or")) {
      auto bin = NewExpr(Expr::Kind::kBinary);
      bin->name = "or";
      Advance();
      ASSIGN_OR_RETURN(bin->rhs, ParseAnd());
      bin->lhs = std::move(lhs);
      RETURN_IF_ERROR(Seal(*bin));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (AtName("and")) {
      auto bin = NewExpr(Expr::Kind::kBinary);
      bin->name = "and";
      Advance();
      ASSIGN_OR_RETURN(bin->rhs, ParseNot());
      bin->lhs = std::move(lhs);
      RETURN_IF_ERROR(Seal(*bin));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AtName("not")) {
      Nested nested(this);
      RETURN_IF_ERROR(CheckDepth(0));
      auto unary = NewExpr(Expr::Kind::kUnary);
      unary->name = "not";
      Advance();
      ASSIGN_OR_RETURN(unary->lhs, ParseNot());
      RETURN_IF_ERROR(Seal(*unary));
      return unary;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (true) {
      std::string op;
      if (AtOp("==") || AtOp("!=") || AtOp("<") || AtOp("<=") || AtOp(">") ||
          AtOp(">=")) {
        op = Cur().text;
        Advance();
      } else if (AtName("in")) {
        op = "in";
        Advance();
      } else if (AtName("not")) {
        // "not in"
        Advance();
        if (!AtName("in")) {
          return Error("expected 'in' after 'not'");
        }
        Advance();
        op = "not in";
      } else {
        break;
      }
      auto bin = NewExpr(Expr::Kind::kBinary);
      bin->name = op;
      ASSIGN_OR_RETURN(bin->rhs, ParseAdditive());
      bin->lhs = std::move(lhs);
      RETURN_IF_ERROR(Seal(*bin));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (AtOp("+") || AtOp("-")) {
      auto bin = NewExpr(Expr::Kind::kBinary);
      bin->name = Cur().text;
      Advance();
      ASSIGN_OR_RETURN(bin->rhs, ParseMultiplicative());
      bin->lhs = std::move(lhs);
      RETURN_IF_ERROR(Seal(*bin));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (AtOp("*") || AtOp("/") || AtOp("%") || AtOp("//")) {
      auto bin = NewExpr(Expr::Kind::kBinary);
      bin->name = Cur().text;
      Advance();
      ASSIGN_OR_RETURN(bin->rhs, ParseUnary());
      bin->lhs = std::move(lhs);
      RETURN_IF_ERROR(Seal(*bin));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (AtOp("-")) {
      Nested nested(this);
      RETURN_IF_ERROR(CheckDepth(0));
      auto unary = NewExpr(Expr::Kind::kUnary);
      unary->name = "-";
      Advance();
      ASSIGN_OR_RETURN(unary->lhs, ParseUnary());
      RETURN_IF_ERROR(Seal(*unary));
      return unary;
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    ASSIGN_OR_RETURN(ExprPtr base, ParsePrimary());
    while (true) {
      if (AtOp("(")) {
        ASSIGN_OR_RETURN(base, ParseCall(std::move(base)));
      } else if (AtOp(".")) {
        Advance();
        if (!At(CslToken::Kind::kName)) {
          return Error("expected attribute name after '.'");
        }
        auto attr = NewExpr(Expr::Kind::kAttr);
        attr->name = Cur().text;
        attr->lhs = std::move(base);
        Advance();
        RETURN_IF_ERROR(Seal(*attr));
        base = std::move(attr);
      } else if (AtOp("[")) {
        Advance();
        auto index = NewExpr(Expr::Kind::kIndex);
        ASSIGN_OR_RETURN(index->rhs, ParseExpression());
        RETURN_IF_ERROR(ExpectOp("]"));
        index->lhs = std::move(base);
        RETURN_IF_ERROR(Seal(*index));
        base = std::move(index);
      } else {
        break;
      }
    }
    return base;
  }

  Result<ExprPtr> ParseCall(ExprPtr callee) {
    auto call = NewExpr(Expr::Kind::kCall);
    call->lhs = std::move(callee);
    Advance();  // '('
    bool saw_kwarg = false;
    while (!AtOp(")")) {
      // Keyword argument: NAME '=' expr (where '=' is not '==').
      if (At(CslToken::Kind::kName) && !IsKeyword(Cur().text) &&
          pos_ + 1 < tokens_.size() && tokens_[pos_ + 1].IsOp("=")) {
        std::string kw = Cur().text;
        for (const auto& [existing, value_expr] : call->kwargs) {
          if (existing == kw) {
            return Error("duplicate keyword argument '" + kw + "'");
          }
        }
        Advance();
        Advance();  // '='
        ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
        call->kwargs.emplace_back(std::move(kw), std::move(value));
        saw_kwarg = true;
      } else {
        if (saw_kwarg) {
          return Error("positional argument after keyword argument");
        }
        ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
        call->items.push_back(std::move(value));
      }
      if (AtOp(",")) {
        Advance();
      } else if (!AtOp(")")) {
        return Error("expected ',' or ')' in argument list");
      }
    }
    Advance();  // ')'
    RETURN_IF_ERROR(Seal(*call));
    return call;
  }

  Result<ExprPtr> ParsePrimary() {
    switch (Cur().kind) {
      case CslToken::Kind::kInt: {
        const std::string& text = Cur().text;  // Digits only.
        int64_t value = 0;
        if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
            std::errc()) {
          return Error("integer literal " + text + " is out of the int64 range");
        }
        auto e = NewExpr(Expr::Kind::kLiteral);
        e->literal = Value::Int(value);
        Advance();
        return e;
      }
      case CslToken::Kind::kFloat: {
        auto e = NewExpr(Expr::Kind::kLiteral);
        e->literal = Value::Double(std::strtod(Cur().text.c_str(), nullptr));
        Advance();
        return e;
      }
      case CslToken::Kind::kString: {
        auto e = NewExpr(Expr::Kind::kLiteral);
        e->literal = Value::Str(Cur().text);
        Advance();
        return e;
      }
      case CslToken::Kind::kName: {
        const std::string& word = Cur().text;
        if (word == "True" || word == "False") {
          auto e = NewExpr(Expr::Kind::kLiteral);
          e->literal = Value::Bool(word == "True");
          Advance();
          return e;
        }
        if (word == "None") {
          auto e = NewExpr(Expr::Kind::kLiteral);
          e->literal = Value::Null();
          Advance();
          return e;
        }
        if (IsKeyword(word)) {
          return Error("unexpected keyword '" + word + "'");
        }
        auto e = NewExpr(Expr::Kind::kName);
        e->name = word;
        Advance();
        return e;
      }
      case CslToken::Kind::kOp: {
        if (AtOp("(")) {
          Advance();
          ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
          RETURN_IF_ERROR(ExpectOp(")"));
          return inner;
        }
        if (AtOp("[")) {
          Advance();
          auto list = NewExpr(Expr::Kind::kList);
          while (!AtOp("]")) {
            ASSIGN_OR_RETURN(ExprPtr item, ParseExpression());
            list->items.push_back(std::move(item));
            if (AtOp(",")) {
              Advance();
            } else if (!AtOp("]")) {
              return Error("expected ',' or ']' in list");
            }
          }
          Advance();
          RETURN_IF_ERROR(Seal(*list));
          return list;
        }
        if (AtOp("{")) {
          Advance();
          auto dict = NewExpr(Expr::Kind::kDict);
          while (!AtOp("}")) {
            ASSIGN_OR_RETURN(ExprPtr key, ParseExpression());
            NoteDictKey(*dict, *key);
            RETURN_IF_ERROR(ExpectOp(":"));
            ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
            dict->pairs.emplace_back(std::move(key), std::move(value));
            if (AtOp(",")) {
              Advance();
            } else if (!AtOp("}")) {
              return Error("expected ',' or '}' in dict");
            }
          }
          Advance();
          RETURN_IF_ERROR(Seal(*dict));
          return dict;
        }
        return Error("unexpected token");
      }
      default:
        return Error("unexpected token");
    }
  }

  // Diagnoses a constant key already present in the literal being parsed
  // (evaluation is last-write-wins, so the earlier entry is silently dead).
  void NoteDictKey(const Expr& dict, const Expr& key) {
    if (lint_diags_ == nullptr || key.kind != Expr::Kind::kLiteral ||
        !key.literal.is_string()) {
      return;
    }
    for (const auto& [existing_key, existing_value] : dict.pairs) {
      if (existing_key->kind == Expr::Kind::kLiteral &&
          existing_key->literal.is_string() &&
          existing_key->literal.as_string() == key.literal.as_string()) {
        LintDiagnostic diag;
        diag.rule_id = "L005";
        diag.severity = LintSeverity::kError;
        diag.file = origin_;
        diag.line = key.line;
        diag.message = "duplicate dict key \"" + key.literal.as_string() +
                       "\" (first defined on line " +
                       std::to_string(existing_key->line) +
                       "; the earlier value is silently discarded)";
        diag.suggestion = "remove one of the entries";
        lint_diags_->push_back(std::move(diag));
        return;
      }
    }
  }

  std::vector<CslToken> tokens_;
  std::string origin_;
  std::vector<LintDiagnostic>* lint_diags_;
  size_t pos_ = 0;
  int depth_ = 0;  // Levels of recursive descent currently open.
};

}  // namespace

Result<std::shared_ptr<Module>> ParseCsl(std::string_view source,
                                         const std::string& origin,
                                         std::vector<LintDiagnostic>* lint_diags) {
  ASSIGN_OR_RETURN(std::vector<CslToken> tokens, TokenizeCsl(source, origin));
  return CslParser(std::move(tokens), origin, lint_diags).Run();
}

}  // namespace configerator
