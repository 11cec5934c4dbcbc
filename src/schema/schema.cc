#include "src/schema/schema.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "src/util/strings.h"

namespace configerator {

const FieldDef* StructDef::FindField(std::string_view field_name) const {
  for (const FieldDef& f : fields) {
    if (f.name == field_name) {
      return &f;
    }
  }
  return nullptr;
}

bool EnumDef::HasValue(int64_t v) const {
  for (const auto& [name, value] : values) {
    if (value == v) {
      return true;
    }
  }
  return false;
}

std::optional<int64_t> EnumDef::ValueOf(std::string_view value_name) const {
  for (const auto& [name, value] : values) {
    if (name == value_name) {
      return value;
    }
  }
  return std::nullopt;
}

std::optional<std::string> EnumDef::NameOf(int64_t v) const {
  for (const auto& [name, value] : values) {
    if (value == v) {
      return name;
    }
  }
  return std::nullopt;
}

namespace {

// Minimal tokenizer for the IDL subset.
class IdlLexer {
 public:
  IdlLexer(std::string_view text, std::string origin)
      : text_(text), origin_(std::move(origin)) {}

  struct Token {
    enum Kind { kIdent, kNumber, kString, kPunct, kEnd } kind = kEnd;
    std::string text;
    int line = 0;
  };

  Result<Token> Next() {
    SkipWhitespaceAndComments();
    Token tok;
    tok.line = line_;
    if (pos_ >= text_.size()) {
      tok.kind = Token::kEnd;
      return tok;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '.')) {
        ++pos_;
      }
      tok.kind = Token::kIdent;
      tok.text = std::string(text_.substr(start, pos_ - start));
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      size_t start = pos_;
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '-' || text_[pos_] == '+')) {
        // Only let sign characters follow an exponent marker.
        if ((text_[pos_] == '-' || text_[pos_] == '+') &&
            !(text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
          break;
        }
        ++pos_;
      }
      tok.kind = Token::kNumber;
      tok.text = std::string(text_.substr(start, pos_ - start));
      return tok;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != quote) {
        if (text_[pos_] == '\n') {
          return Error("newline in string literal");
        }
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
          ++pos_;
        }
        value.push_back(text_[pos_++]);
      }
      if (pos_ >= text_.size()) {
        return Error("unterminated string literal");
      }
      ++pos_;  // closing quote
      tok.kind = Token::kString;
      tok.text = std::move(value);
      return tok;
    }
    tok.kind = Token::kPunct;
    tok.text = std::string(1, c);
    ++pos_;
    return tok;
  }

  Status Error(const std::string& msg) const {
    return InvalidArgumentError(
        StrFormat("%s:%d: %s", origin_.c_str(), line_, msg.c_str()));
  }

  int line() const { return line_; }

 private:
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') {
            ++line_;
          }
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::string origin_;
  size_t pos_ = 0;
  int line_ = 1;
};

// Parses IDL text into struct/enum definitions. Each `include` goes to
// `on_include`, which loads the file before the parse goes on.
class IdlParser {
 public:
  using IncludeHandler = std::function<Status(const std::string&)>;

  IdlParser(std::string_view text, std::string origin,
            const IncludeHandler& on_include, SchemaRegistry* registry)
      : lexer_(text, std::move(origin)), on_include_(on_include),
        registry_(registry) {}

  Status Run() {
    RETURN_IF_ERROR(Advance());
    while (tok_.kind != IdlLexer::Token::kEnd) {
      if (tok_.kind != IdlLexer::Token::kIdent) {
        return lexer_.Error("expected top-level declaration");
      }
      if (tok_.text == "include") {
        RETURN_IF_ERROR(ParseInclude());
      } else if (tok_.text == "struct") {
        RETURN_IF_ERROR(ParseStruct());
      } else if (tok_.text == "enum") {
        RETURN_IF_ERROR(ParseEnum());
      } else if (tok_.text == "namespace") {
        // Accept and ignore thrift namespace declarations.
        RETURN_IF_ERROR(Advance());  // language
        RETURN_IF_ERROR(Advance());  // identifier
        RETURN_IF_ERROR(Advance());
      } else {
        return lexer_.Error("unknown declaration '" + tok_.text + "'");
      }
    }
    return OkStatus();
  }

 private:
  Status Advance() {
    ASSIGN_OR_RETURN(tok_, lexer_.Next());
    return OkStatus();
  }

  Status Expect(IdlLexer::Token::Kind kind, std::string_view text = {}) {
    if (tok_.kind != kind || (!text.empty() && tok_.text != text)) {
      return lexer_.Error(StrFormat("expected '%s', found '%s'",
                                    std::string(text).c_str(), tok_.text.c_str()));
    }
    return Advance();
  }

  Status ParseInclude() {
    RETURN_IF_ERROR(Advance());
    if (tok_.kind != IdlLexer::Token::kString) {
      return lexer_.Error("include expects a quoted path");
    }
    RETURN_IF_ERROR(on_include_(tok_.text));
    return Advance();
  }

  Status ParseEnum() {
    RETURN_IF_ERROR(Advance());
    if (tok_.kind != IdlLexer::Token::kIdent) {
      return lexer_.Error("enum expects a name");
    }
    EnumDef def;
    def.name = tok_.text;
    RETURN_IF_ERROR(Advance());
    RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, "{"));
    std::optional<int64_t> next_value = 0;  // None past INT64_MAX.
    while (!(tok_.kind == IdlLexer::Token::kPunct && tok_.text == "}")) {
      if (tok_.kind != IdlLexer::Token::kIdent) {
        return lexer_.Error("expected enum value name");
      }
      std::string value_name = tok_.text;
      RETURN_IF_ERROR(Advance());
      std::optional<int64_t> value = next_value;
      if (tok_.kind == IdlLexer::Token::kPunct && tok_.text == "=") {
        RETURN_IF_ERROR(Advance());
        if (tok_.kind != IdlLexer::Token::kNumber) {
          return lexer_.Error("expected numeric enum value");
        }
        value = std::strtoll(tok_.text.c_str(), nullptr, 10);
        RETURN_IF_ERROR(Advance());
      }
      if (!value.has_value()) {
        return lexer_.Error("enum value '" + value_name + "' past INT64_MAX");
      }
      def.values.emplace_back(std::move(value_name), *value);
      next_value = *value < INT64_MAX ? std::optional<int64_t>(*value + 1)
                                      : std::nullopt;
      if (tok_.kind == IdlLexer::Token::kPunct &&
          (tok_.text == "," || tok_.text == ";")) {
        RETURN_IF_ERROR(Advance());
      }
    }
    RETURN_IF_ERROR(Advance());  // '}'
    return registry_->RegisterEnum(std::move(def));
  }

  // `depth` counts the list<>/map<> types enclosing this one.
  Result<Type> ParseType(int depth = 0) {
    if (tok_.kind != IdlLexer::Token::kIdent) {
      return lexer_.Error("expected type name");
    }
    std::string name = tok_.text;
    if ((name == "list" || name == "map") && depth == kMaxIdlNestingDepth) {
      return lexer_.Error(
          StrFormat("type nesting deeper than %d levels", kMaxIdlNestingDepth));
    }
    RETURN_IF_ERROR(Advance());
    if (name == "bool") {
      return Type::Bool();
    }
    if (name == "i16") {
      return Type::I16();
    }
    if (name == "i32") {
      return Type::I32();
    }
    if (name == "i64") {
      return Type::I64();
    }
    if (name == "double") {
      return Type::Double();
    }
    if (name == "string") {
      return Type::String();
    }
    if (name == "list") {
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, "<"));
      ASSIGN_OR_RETURN(Type elem, ParseType(depth + 1));
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, ">"));
      return Type::List(std::move(elem));
    }
    if (name == "map") {
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, "<"));
      if (tok_.kind != IdlLexer::Token::kIdent || tok_.text != "string") {
        return lexer_.Error("map keys must be string (JSON object keys)");
      }
      RETURN_IF_ERROR(Advance());
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, ","));
      ASSIGN_OR_RETURN(Type value, ParseType(depth + 1));
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, ">"));
      return Type::Map(std::move(value));
    }
    // Named reference: decided later (struct vs enum) during resolution, but
    // if already registered we can classify now.
    if (registry_->FindEnum(name) != nullptr) {
      return Type::EnumRef(std::move(name));
    }
    return Type::StructRef(std::move(name));
  }

  // Parses a literal default value (number, string, bool, list of literals).
  // `depth` counts the `[...]` lists enclosing this one.
  Result<Json> ParseLiteral(int depth = 0) {
    if (tok_.kind == IdlLexer::Token::kNumber) {
      std::string text = tok_.text;
      RETURN_IF_ERROR(Advance());
      if (text.find('.') != std::string::npos ||
          text.find('e') != std::string::npos ||
          text.find('E') != std::string::npos) {
        return Json(std::strtod(text.c_str(), nullptr));
      }
      return Json(static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
    }
    if (tok_.kind == IdlLexer::Token::kString) {
      Json v(tok_.text);
      RETURN_IF_ERROR(Advance());
      return v;
    }
    if (tok_.kind == IdlLexer::Token::kIdent) {
      std::string word = tok_.text;
      if (word == "true" || word == "false") {
        RETURN_IF_ERROR(Advance());
        return Json(word == "true");
      }
      // Possibly EnumName.VALUE or bare enum value.
      auto dot = word.find('.');
      if (dot != std::string::npos) {
        std::string enum_name = word.substr(0, dot);
        std::string value_name = word.substr(dot + 1);
        const EnumDef* e = registry_->FindEnum(enum_name);
        if (e != nullptr) {
          auto v = e->ValueOf(value_name);
          if (v.has_value()) {
            RETURN_IF_ERROR(Advance());
            return Json(*v);
          }
        }
      }
      return lexer_.Error("unsupported default literal '" + word + "'");
    }
    if (tok_.kind == IdlLexer::Token::kPunct && tok_.text == "[") {
      if (depth == kMaxIdlNestingDepth) {
        return lexer_.Error(StrFormat("default nesting deeper than %d levels",
                                      kMaxIdlNestingDepth));
      }
      RETURN_IF_ERROR(Advance());
      Json arr = Json::MakeArray();
      while (!(tok_.kind == IdlLexer::Token::kPunct && tok_.text == "]")) {
        ASSIGN_OR_RETURN(Json elem, ParseLiteral(depth + 1));
        arr.Append(std::move(elem));
        if (tok_.kind == IdlLexer::Token::kPunct && tok_.text == ",") {
          RETURN_IF_ERROR(Advance());
        }
      }
      RETURN_IF_ERROR(Advance());
      return arr;
    }
    return lexer_.Error("unsupported default literal");
  }

  Status ParseStruct() {
    RETURN_IF_ERROR(Advance());
    if (tok_.kind != IdlLexer::Token::kIdent) {
      return lexer_.Error("struct expects a name");
    }
    StructDef def;
    def.name = tok_.text;
    RETURN_IF_ERROR(Advance());
    RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, "{"));
    while (!(tok_.kind == IdlLexer::Token::kPunct && tok_.text == "}")) {
      FieldDef field;
      if (tok_.kind != IdlLexer::Token::kNumber) {
        return lexer_.Error("expected field id");
      }
      field.id = static_cast<int32_t>(std::strtol(tok_.text.c_str(), nullptr, 10));
      RETURN_IF_ERROR(Advance());
      RETURN_IF_ERROR(Expect(IdlLexer::Token::kPunct, ":"));
      if (tok_.kind == IdlLexer::Token::kIdent &&
          (tok_.text == "required" || tok_.text == "optional")) {
        field.required = tok_.text == "required";
        RETURN_IF_ERROR(Advance());
      }
      {
        auto type_result = ParseType();
        if (!type_result.ok()) {
          return type_result.status();
        }
        field.type = std::move(type_result).value();
      }
      if (tok_.kind != IdlLexer::Token::kIdent) {
        return lexer_.Error("expected field name");
      }
      field.name = tok_.text;
      RETURN_IF_ERROR(Advance());
      if (tok_.kind == IdlLexer::Token::kPunct && tok_.text == "=") {
        RETURN_IF_ERROR(Advance());
        auto lit = ParseLiteral();
        if (!lit.ok()) {
          return lit.status();
        }
        field.default_value = std::move(lit).value();
      }
      if (tok_.kind == IdlLexer::Token::kPunct &&
          (tok_.text == "," || tok_.text == ";")) {
        RETURN_IF_ERROR(Advance());
      }
      for (const FieldDef& existing : def.fields) {
        if (existing.id == field.id) {
          return lexer_.Error(
              StrFormat("duplicate field id %d in struct %s", field.id,
                        def.name.c_str()));
        }
        if (existing.name == field.name) {
          return lexer_.Error("duplicate field name '" + field.name + "'");
        }
      }
      def.fields.push_back(std::move(field));
    }
    RETURN_IF_ERROR(Advance());  // '}'
    return registry_->RegisterStruct(std::move(def));
  }

  IdlLexer lexer_;
  const IncludeHandler& on_include_;
  SchemaRegistry* registry_;
  IdlLexer::Token tok_;
};

}  // namespace

Status SchemaRegistry::Load(const std::string& path,
                            const SchemaReader& reader) {
  std::vector<std::string> chain;
  return LoadFile(path, reader, &chain);
}

Status SchemaRegistry::LoadFile(const std::string& path,
                                const SchemaReader& reader,
                                std::vector<std::string>* chain) {
  auto on_chain = std::find(chain->begin(), chain->end(), path);
  if (on_chain != chain->end()) {
    std::vector<std::string> cycle(on_chain, chain->end());
    cycle.push_back(path);
    return InvalidConfigError("include cycle: " + StrJoin(cycle, " -> "));
  }
  if (auto loaded = files_.find(path); loaded != files_.end()) {
    return loaded->second;
  }
  if (chain->size() == static_cast<size_t>(kMaxIncludeDepth)) {
    return InvalidConfigError(
        StrFormat("include chain deeper than %d files: %s -> ... -> %s",
                  kMaxIncludeDepth, chain->front().c_str(), path.c_str()));
  }
  chain->push_back(path);
  Status& status = files_[path];
  IdlParser::IncludeHandler on_include = [&](const std::string& include) {
    return LoadFile(include, reader, chain);
  };
  Result<std::string> text = reader(path);
  status = text.ok() ? IdlParser(*text, path, on_include, this).Run()
                     : text.status();
  chain->pop_back();
  return status;
}

Status SchemaRegistry::RegisterStruct(StructDef def) {
  if (enums_.count(def.name) > 0) {
    return AlreadyExistsError("'" + def.name + "' already defined as enum");
  }
  // A later definition of the same name replaces the earlier one.
  structs_.insert_or_assign(def.name, std::move(def));
  return OkStatus();
}

Status SchemaRegistry::RegisterEnum(EnumDef def) {
  if (structs_.count(def.name) > 0) {
    return AlreadyExistsError("'" + def.name + "' already defined as struct");
  }
  enums_.insert_or_assign(def.name, std::move(def));
  return OkStatus();
}

const StructDef* SchemaRegistry::FindStruct(std::string_view name) const {
  auto it = structs_.find(name);
  return it == structs_.end() ? nullptr : &it->second;
}

const EnumDef* SchemaRegistry::FindEnum(std::string_view name) const {
  auto it = enums_.find(name);
  return it == enums_.end() ? nullptr : &it->second;
}

namespace {

Status ResolveType(const SchemaRegistry& registry, const Type& type,
                   const std::string& context) {
  switch (type.kind()) {
    case TypeKind::kList:
    case TypeKind::kMap:
      return ResolveType(registry, type.element(), context);
    case TypeKind::kStruct:
      // A StructRef may actually name an enum that was registered later.
      if (registry.FindStruct(type.name()) == nullptr &&
          registry.FindEnum(type.name()) == nullptr) {
        return NotFoundError(StrFormat("unresolved type '%s' referenced from %s",
                                       type.name().c_str(), context.c_str()));
      }
      return OkStatus();
    case TypeKind::kEnum:
      if (registry.FindEnum(type.name()) == nullptr) {
        return NotFoundError(StrFormat("unresolved enum '%s' referenced from %s",
                                       type.name().c_str(), context.c_str()));
      }
      return OkStatus();
    default:
      return OkStatus();
  }
}

}  // namespace

Status SchemaRegistry::ResolveAll() const {
  for (const auto& [name, def] : structs_) {
    for (const FieldDef& f : def.fields) {
      RETURN_IF_ERROR(ResolveType(*this, f.type, "struct " + name));
    }
  }
  return OkStatus();
}

std::vector<std::string> SchemaRegistry::StructNames() const {
  std::vector<std::string> names;
  names.reserve(structs_.size());
  for (const auto& [name, def] : structs_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> SchemaRegistry::EnumNames() const {
  std::vector<std::string> names;
  names.reserve(enums_.size());
  for (const auto& [name, def] : enums_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace configerator
