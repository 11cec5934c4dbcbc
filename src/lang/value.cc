#include "src/lang/value.h"

#include "src/util/strings.h"

namespace configerator {

Status ValueWalk::Visit(const Value& v, int depth, size_t key_bytes) {
  if (depth > kMaxValueDepth) {
    return InvalidConfigError(
        "value nesting exceeds the depth limit (self-referential container?)");
  }
  if (++nodes_ > kMaxValueNodes) {
    return InvalidConfigError(
        "value walk exceeds the node limit (shared substructure?)");
  }
  bytes_ += key_bytes + (v.is_string() ? v.as_string().size() : 0);
  if (bytes_ > kMaxStringBytes) {
    return InvalidConfigError("value walk exceeds the string byte limit");
  }
  return OkStatus();
}

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.shared_ = std::make_shared<const std::string>(std::move(s));
  return v;
}

Value Value::MakeNative(std::string name, NativeFn fn) {
  Value v;
  v.kind_ = Kind::kNative;
  v.shared_ = std::make_shared<const NativeFunction>(
      NativeFunction{std::move(name), std::move(fn)});
  return v;
}

const std::string& Value::type_name() const {
  static const std::string kNone;
  return is_dict() ? dict_->type_name : kNone;
}

bool Value::Truthy() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return bool_;
    case Kind::kInt:
      return int_ != 0;
    case Kind::kDouble:
      return double_ != 0;
    case Kind::kString:
      return !as_string().empty();
    case Kind::kList:
      return !list_->empty();
    case Kind::kDict:
      return !dict_->items.empty();
    case Kind::kClosure:
    case Kind::kNative:
      return true;
  }
  return false;
}

Result<bool> Value::Equals(const Value& other, ValueWalk* walk) const {
  ValueWalk local;
  return EqualsInternal(other, 0, 0, walk != nullptr ? *walk : local);
}

Result<bool> Value::EqualsInternal(const Value& other, int depth,
                                   size_t key_bytes, ValueWalk& walk) const {
  RETURN_IF_ERROR(walk.Visit(*this, depth, key_bytes));
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) {
      return int_ == other.int_;
    }
    return as_double() == other.as_double();
  }
  if (kind_ != other.kind_) {
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kString:
      return shared_ == other.shared_ || as_string() == other.as_string();
    case Kind::kList: {
      if (list_ == other.list_) {
        return true;
      }
      if (list_->size() != other.list_->size()) {
        return false;
      }
      for (size_t i = 0; i < list_->size(); ++i) {
        ASSIGN_OR_RETURN(bool equal, (*list_)[i].EqualsInternal(
                                         (*other.list_)[i], depth + 1, 0, walk));
        if (!equal) {
          return false;
        }
      }
      return true;
    }
    case Kind::kDict: {
      if (dict_ == other.dict_) {
        return true;
      }
      if (dict_->items.size() != other.dict_->items.size()) {
        return false;
      }
      auto it2 = other.dict_->items.begin();
      for (const auto& [key, item] : dict_->items) {
        if (key != it2->first) {
          return false;
        }
        ASSIGN_OR_RETURN(bool equal, item.EqualsInternal(it2->second, depth + 1,
                                                         key.size(), walk));
        if (!equal) {
          return false;
        }
        ++it2;
      }
      return true;
    }
    case Kind::kClosure:
      return closure_ == other.closure_;
    case Kind::kNative:
      return shared_ == other.shared_;
    default:
      return false;
  }
}

std::string_view Value::KindName() const {
  switch (kind_) {
    case Kind::kNull:
      return "None";
    case Kind::kBool:
      return "bool";
    case Kind::kInt:
      return "int";
    case Kind::kDouble:
      return "double";
    case Kind::kString:
      return "string";
    case Kind::kList:
      return "list";
    case Kind::kDict:
      return dict_->type_name.empty() ? "dict"
                                      : std::string_view(dict_->type_name);
    case Kind::kClosure:
      return "function";
    case Kind::kNative:
      return "builtin";
  }
  return "?";
}

std::string Value::ToDebugString() const {
  ValueWalk walk;
  std::string out;
  AppendDebugString(0, 0, walk, &out);
  return out;
}

bool Value::AppendDebugString(int depth, size_t key_bytes, ValueWalk& walk,
                              std::string* out) const {
  if (!walk.Visit(*this, depth, key_bytes).ok()) {
    *out += "...";
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      *out += "None";
      return true;
    case Kind::kBool:
      *out += bool_ ? "True" : "False";
      return true;
    case Kind::kInt:
      *out += std::to_string(int_);
      return true;
    case Kind::kDouble:
      *out += StrFormat("%g", double_);
      return true;
    case Kind::kString:
      JsonEscape(as_string(), out);
      return true;
    case Kind::kList: {
      *out += "[";
      bool complete = true;
      for (size_t i = 0; complete && i < list_->size(); ++i) {
        *out += i > 0 ? ", " : "";
        complete = (*list_)[i].AppendDebugString(depth + 1, 0, walk, out);
      }
      *out += "]";
      return complete;
    }
    case Kind::kDict: {
      *out += dict_->type_name.empty() ? "{" : dict_->type_name + "{";
      bool complete = true;
      for (auto it = dict_->items.begin();
           complete && it != dict_->items.end(); ++it) {
        *out += (it != dict_->items.begin() ? ", " : "") + it->first + ": ";
        complete = it->second.AppendDebugString(depth + 1, it->first.size(),
                                                walk, out);
      }
      *out += "}";
      return complete;
    }
    case Kind::kClosure:
      *out += "<function>";
      return true;
    case Kind::kNative:
      *out += "<builtin " + as_native().name + ">";
      return true;
  }
  return true;
}

Result<Json> Value::ToJson() const {
  ValueWalk walk;
  return ToJsonInternal(0, 0, walk);
}

Result<Json> Value::ToJsonInternal(int depth, size_t key_bytes,
                                   ValueWalk& walk) const {
  RETURN_IF_ERROR(walk.Visit(*this, depth, key_bytes));
  switch (kind_) {
    case Kind::kNull:
      return Json(nullptr);
    case Kind::kBool:
      return Json(bool_);
    case Kind::kInt:
      return Json(int_);
    case Kind::kDouble:
      return Json(double_);
    case Kind::kString:
      return Json(as_string());
    case Kind::kList: {
      Json arr = Json::MakeArray();
      for (const Value& v : *list_) {
        ASSIGN_OR_RETURN(Json j, v.ToJsonInternal(depth + 1, 0, walk));
        arr.Append(std::move(j));
      }
      return arr;
    }
    case Kind::kDict: {
      Json obj = Json::MakeObject();
      for (const auto& [k, v] : dict_->items) {
        ASSIGN_OR_RETURN(Json j, v.ToJsonInternal(depth + 1, k.size(), walk));
        obj.Set(k, std::move(j));
      }
      return obj;
    }
    case Kind::kClosure:
    case Kind::kNative:
      return InvalidConfigError("cannot export a function value to JSON");
  }
  return InternalError("unhandled value kind");
}

Result<Value> Value::FromJson(const Json& json, ValueArena& arena) {
  switch (json.kind()) {
    case Json::Kind::kNull:
      return Value::Null();
    case Json::Kind::kBool:
      return Value::Bool(json.as_bool());
    case Json::Kind::kInt:
      return Value::Int(json.as_int());
    case Json::Kind::kDouble:
      return Value::Double(json.as_double());
    case Json::Kind::kString:
      return arena.Str(json.as_string());
    case Json::Kind::kArray: {
      List items;
      items.reserve(json.as_array().size());
      for (const Json& j : json.as_array()) {
        ASSIGN_OR_RETURN(Value item, FromJson(j, arena));
        items.push_back(std::move(item));
      }
      return arena.MakeList(std::move(items));
    }
    case Json::Kind::kObject: {
      Dict items;
      for (const auto& [k, j] : json.as_object()) {
        ASSIGN_OR_RETURN(Value item, FromJson(j, arena));
        items.emplace(k, std::move(item));
      }
      return arena.MakeDict(std::move(items));
    }
  }
  return Value::Null();
}

Status CheckStringLength(uint64_t length) {
  if (length > kMaxStringBytes) {
    return InvalidConfigError(StrFormat(
        "string exceeds the string length limit of %zu bytes", kMaxStringBytes));
  }
  return OkStatus();
}

Status ValueArena::CheckFits(size_t bytes) const {
  if (bytes > kArenaBudgetBytes - charged_) {
    return InvalidConfigError(StrFormat(
        "evaluation exceeds the memory budget of %zu bytes (the config "
        "builds too many lists, dicts and strings)",
        kArenaBudgetBytes));
  }
  return OkStatus();
}

Status ValueArena::Charge(size_t bytes) {
  RETURN_IF_ERROR(CheckFits(bytes));
  charged_ += bytes;
  return OkStatus();
}

size_t ValueArena::DictEntryBytes(const std::string& key) {
  // The map node: the entry, three links and the color.
  return sizeof(Value::Dict::value_type) + 4 * sizeof(void*) + key.size();
}

Result<Value> ValueArena::MakeList(Value::List items) {
  RETURN_IF_ERROR(
      Charge(sizeof(Value::List) + items.size() * sizeof(Value)));
  Value v;
  v.kind_ = Value::Kind::kList;
  v.list_ = &lists_.emplace_back(std::move(items));
  return v;
}

Result<Value> ValueArena::MakeDict(Value::Dict items, std::string type_name) {
  size_t bytes = sizeof(Value::DictCell);
  for (const auto& [key, item] : items) {
    bytes += DictEntryBytes(key);
  }
  RETURN_IF_ERROR(Charge(bytes));
  Value v;
  v.kind_ = Value::Kind::kDict;
  v.dict_ = &dicts_.emplace_back(
      Value::DictCell{std::move(items), std::move(type_name)});
  return v;
}

Result<Value> ValueArena::MakeClosure(Closure closure) {
  RETURN_IF_ERROR(Charge(sizeof(Closure)));
  Value v;
  v.kind_ = Value::Kind::kClosure;
  v.closure_ = &closures_.emplace_back(std::move(closure));
  return v;
}

Result<Value> ValueArena::Str(std::string s) {
  RETURN_IF_ERROR(CheckStringLength(s.size()));
  // The bytes plus the string object and its shared_ptr control block.
  RETURN_IF_ERROR(Charge(s.size() + sizeof(std::string) + 2 * sizeof(void*)));
  return Value::Str(std::move(s));
}

}  // namespace configerator
