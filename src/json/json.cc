#include "src/json/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/util/strings.h"

namespace configerator {

bool Json::as_bool() const {
  assert(is_bool());
  return bool_;
}

int64_t Json::as_int() const {
  assert(is_int());
  return int_;
}

double Json::as_double() const {
  assert(is_number());
  return is_int() ? static_cast<double>(int_) : double_;
}

const std::string& Json::as_string() const {
  assert(is_string());
  return string_;
}

const Json::Array& Json::as_array() const {
  assert(is_array());
  return array_;
}

Json::Array& Json::as_array() {
  assert(is_array());
  return array_;
}

const Json::Object& Json::as_object() const {
  assert(is_object());
  return object_;
}

Json::Object& Json::as_object() {
  assert(is_object());
  return object_;
}

const Json* Json::Get(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

void Json::Set(std::string key, Json value) {
  assert(is_object());
  object_.insert_or_assign(std::move(key), std::move(value));
}

void Json::Append(Json value) {
  assert(is_array());
  array_.push_back(std::move(value));
}

size_t Json::size() const {
  if (is_array()) {
    return array_.size();
  }
  if (is_object()) {
    return object_.size();
  }
  return 0;
}

void JsonEscape(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

namespace {

void DumpDouble(double d, std::string* out) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null like most permissive serializers.
    *out += "null";
    return;
  }
  char buf[64];
  // %.17g round-trips doubles; strip to shortest via %g first.
  int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += std::string_view(buf, static_cast<size_t>(n));
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline_and_pad = [&](int d) {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };

  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      *out += std::to_string(int_);
      break;
    case Kind::kDouble:
      DumpDouble(double_, out);
      break;
    case Kind::kString:
      JsonEscape(string_, out);
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const Json& v : array_) {
        if (!first) {
          out->push_back(',');
          if (indent == 0) {
            out->push_back(' ');
          }
        }
        first = false;
        newline_and_pad(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) {
          out->push_back(',');
          if (indent == 0) {
            out->push_back(' ');
          }
        }
        first = false;
        newline_and_pad(depth + 1);
        JsonEscape(key, out);
        *out += ": ";
        value.DumpTo(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  out.push_back('\n');
  return out;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) {
    // Allow int/double cross-kind numeric equality.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kInt:
      return int_ == other.int_;
    case Kind::kDouble:
      return double_ == other.double_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

// Recursive-descent JSON parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipWhitespace();
    ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& msg) {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %s", pos_, msg.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (AtEnd()) {
      return Error("unexpected end of input");
    }
    char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxParseDepth) {
          return Error(StrFormat("nesting deeper than %d levels",
                                 Json::kMaxParseDepth));
        }
        ++depth_;
        auto nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (Consume("true")) {
          return Json(true);
        }
        return Error("invalid literal");
      case 'f':
        if (Consume("false")) {
          return Json(false);
        }
        return Error("invalid literal");
      case 'n':
        if (Consume("null")) {
          return Json(nullptr);
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) {
      ++pos_;
    }
    bool is_double = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-" || token == "+") {
      return Error("invalid number");
    }
    if (!is_double) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc() && p == token.data() + token.size()) {
        return Json(v);
      }
      // Overflowing int64 falls through to double.
    }
    // std::from_chars for double is available in libstdc++ >= 11.
    double d = 0;
    auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || p != token.data() + token.size()) {
      return Error("invalid number");
    }
    return Json(d);
  }

  Result<std::string> ParseString() {
    if (AtEnd() || Peek() != '"') {
      return Error("expected string");
    }
    ++pos_;
    std::string out;
    while (true) {
      if (AtEnd()) {
        return Error("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) {
        return Error("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs handled as two
          // separate \u escapes producing a 4-byte sequence).
          if (code >= 0xD800 && code <= 0xDBFF && pos_ + 6 <= text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            unsigned low = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              low <<= 4;
              if (h >= '0' && h <= '9') {
                low |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                low |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                low |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            unsigned cp = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::MakeArray();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWhitespace();
      ASSIGN_OR_RETURN(Json value, ParseValue());
      arr.Append(std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        return Error("unterminated array");
      }
      char c = text_[pos_++];
      if (c == ']') {
        return arr;
      }
      if (c != ',') {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::MakeObject();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (AtEnd() || text_[pos_++] != ':') {
        return Error("expected ':' in object");
      }
      SkipWhitespace();
      ASSIGN_OR_RETURN(Json value, ParseValue());
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        return Error("unterminated object");
      }
      char c = text_[pos_++];
      if (c == '}') {
        return obj;
      }
      if (c != ',') {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays/objects currently open.
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) { return Parser(text).Parse(); }

}  // namespace configerator
