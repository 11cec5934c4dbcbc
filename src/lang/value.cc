#include "src/lang/value.h"

#include <algorithm>
#include <set>

#include "src/util/strings.h"

namespace configerator {

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
  v.string_ = std::make_shared<std::string>(std::move(s));
  return v;
}

Value Value::MakeList() { return MakeList({}); }

Value Value::MakeList(List items) {
  Value v;
  v.kind_ = Kind::kList;
  v.list_ = std::make_shared<List>(std::move(items));
  if (ContainerCycleBreaker* breaker = ContainerCycleBreaker::Current()) {
    breaker->Track(v.list_);
  }
  return v;
}

Value Value::MakeDict() { return MakeDict({}, ""); }

Value Value::MakeDict(Dict items, std::string type_name) {
  Value v;
  v.kind_ = Kind::kDict;
  v.dict_ = std::make_shared<Dict>(std::move(items));
  v.type_name_ = std::move(type_name);
  if (ContainerCycleBreaker* breaker = ContainerCycleBreaker::Current()) {
    breaker->Track(v.dict_);
  }
  return v;
}

Value Value::MakeClosure(Closure c) {
  Value v;
  v.kind_ = Kind::kClosure;
  v.closure_ = std::make_shared<Closure>(std::move(c));
  return v;
}

Value Value::MakeNative(std::string name, NativeFn fn) {
  Value v;
  v.kind_ = Kind::kNative;
  v.native_ = std::make_shared<NativeFunction>(
      NativeFunction{std::move(name), std::move(fn)});
  return v;
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
      return !string_->empty();
    case Kind::kList:
      return !list_->empty();
    case Kind::kDict:
      return !dict_->empty();
    case Kind::kClosure:
    case Kind::kNative:
      return true;
  }
  return false;
}

bool Value::Equals(const Value& other) const {
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
      return *string_ == *other.string_;
    case Kind::kList: {
      if (list_ == other.list_) {
        return true;
      }
      if (list_->size() != other.list_->size()) {
        return false;
      }
      for (size_t i = 0; i < list_->size(); ++i) {
        if (!(*list_)[i].Equals((*other.list_)[i])) {
          return false;
        }
      }
      return true;
    }
    case Kind::kDict: {
      if (dict_ == other.dict_) {
        return true;
      }
      if (dict_->size() != other.dict_->size()) {
        return false;
      }
      auto it1 = dict_->begin();
      auto it2 = other.dict_->begin();
      for (; it1 != dict_->end(); ++it1, ++it2) {
        if (it1->first != it2->first || !it1->second.Equals(it2->second)) {
          return false;
        }
      }
      return true;
    }
    case Kind::kClosure:
      return closure_ == other.closure_;
    case Kind::kNative:
      return native_ == other.native_;
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
      return type_name_.empty() ? "dict" : std::string_view(type_name_);
    case Kind::kClosure:
      return "function";
    case Kind::kNative:
      return "builtin";
  }
  return "?";
}

namespace {
constexpr int kMaxValueDepth = 128;
}  // namespace

std::string Value::ToDebugStringInternal(int depth) const {
  if (depth > kMaxValueDepth) {
    return "...";
  }
  switch (kind_) {
    case Kind::kNull:
      return "None";
    case Kind::kBool:
      return bool_ ? "True" : "False";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble:
      return StrFormat("%g", double_);
    case Kind::kString: {
      std::string out;
      JsonEscape(*string_, &out);
      return out;
    }
    case Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < list_->size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += (*list_)[i].ToDebugStringInternal(depth + 1);
      }
      return out + "]";
    }
    case Kind::kDict: {
      std::string out = type_name_.empty() ? "{" : type_name_ + "{";
      bool first = true;
      for (const auto& [k, v] : *dict_) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += k + ": " + v.ToDebugStringInternal(depth + 1);
      }
      return out + "}";
    }
    case Kind::kClosure:
      return "<function>";
    case Kind::kNative:
      return "<builtin " + native_->name + ">";
  }
  return "?";
}

Result<Json> Value::ToJsonInternal(int depth) const {
  if (depth > kMaxValueDepth) {
    return InvalidConfigError(
        "value nesting exceeds the export depth limit (self-referential "
        "container?)");
  }
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
      return Json(*string_);
    case Kind::kList: {
      Json arr = Json::MakeArray();
      for (const Value& v : *list_) {
        ASSIGN_OR_RETURN(Json j, v.ToJsonInternal(depth + 1));
        arr.Append(std::move(j));
      }
      return arr;
    }
    case Kind::kDict: {
      Json obj = Json::MakeObject();
      for (const auto& [k, v] : *dict_) {
        ASSIGN_OR_RETURN(Json j, v.ToJsonInternal(depth + 1));
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

Value Value::FromJson(const Json& json) {
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
      return Value::Str(json.as_string());
    case Json::Kind::kArray: {
      List items;
      items.reserve(json.as_array().size());
      for (const Json& j : json.as_array()) {
        items.push_back(FromJson(j));
      }
      return MakeList(std::move(items));
    }
    case Json::Kind::kObject: {
      Dict items;
      for (const auto& [k, j] : json.as_object()) {
        items.emplace(k, FromJson(j));
      }
      return MakeDict(std::move(items));
    }
  }
  return Value::Null();
}

ContainerCycleBreaker*& ContainerCycleBreaker::Current() {
  thread_local ContainerCycleBreaker* current = nullptr;
  return current;
}

ContainerCycleBreaker::ContainerCycleBreaker() : prev_(Current()) {
  Current() = this;
}

ContainerCycleBreaker::~ContainerCycleBreaker() {
  BreakCycles();
  // Splice this breaker out of the installation chain wherever it sits.
  // Destruction is usually LIFO, but `interp = std::make_unique<Interp>(...)`
  // constructs the replacement (installing its breaker) before destroying
  // the old interpreter, so the chain can lose a middle link first.
  if (Current() == this) {
    Current() = prev_;
    return;
  }
  for (ContainerCycleBreaker* b = Current(); b != nullptr; b = b->prev_) {
    if (b->prev_ == this) {
      b->prev_ = prev_;
      return;
    }
  }
}

namespace {

// True when any container reachable from `v` through list/dict edges is
// `target`. By the time this runs the interpreter has already cleared its
// environments, so closure→scope edges lead nowhere and container edges
// are the only way a cycle can persist.
bool ReachesCell(const Value& v, const void* target,
                 std::set<const void*>& visited) {
  if (v.is_list()) {
    const void* id = &v.as_list();
    if (id == target) {
      return true;
    }
    if (!visited.insert(id).second) {
      return false;
    }
    for (const Value& item : v.as_list()) {
      if (ReachesCell(item, target, visited)) {
        return true;
      }
    }
  } else if (v.is_dict()) {
    const void* id = &v.as_dict();
    if (id == target) {
      return true;
    }
    if (!visited.insert(id).second) {
      return false;
    }
    for (const auto& [key, item] : v.as_dict()) {
      if (ReachesCell(item, target, visited)) {
        return true;
      }
    }
  }
  return false;
}

bool ListIsCyclic(const std::shared_ptr<Value::List>& cell) {
  std::set<const void*> visited;
  for (const Value& item : *cell) {
    if (ReachesCell(item, cell.get(), visited)) {
      return true;
    }
  }
  return false;
}

bool DictIsCyclic(const std::shared_ptr<Value::Dict>& cell) {
  std::set<const void*> visited;
  for (const auto& [key, item] : *cell) {
    if (ReachesCell(item, cell.get(), visited)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void ContainerCycleBreaker::BreakCycles() {
  // Lock the survivors, decide which are cyclic, then clear — deciding
  // before clearing keeps the reachability checks consistent.
  std::vector<std::shared_ptr<Value::List>> live_lists;
  std::vector<std::shared_ptr<Value::Dict>> live_dicts;
  for (const std::weak_ptr<Value::List>& weak : lists_) {
    if (std::shared_ptr<Value::List> cell = weak.lock()) {
      live_lists.push_back(std::move(cell));
    }
  }
  for (const std::weak_ptr<Value::Dict>& weak : dicts_) {
    if (std::shared_ptr<Value::Dict> cell = weak.lock()) {
      live_dicts.push_back(std::move(cell));
    }
  }
  std::vector<std::shared_ptr<Value::List>> cyclic_lists;
  std::vector<std::shared_ptr<Value::Dict>> cyclic_dicts;
  for (const std::shared_ptr<Value::List>& cell : live_lists) {
    if (ListIsCyclic(cell)) {
      cyclic_lists.push_back(cell);
    }
  }
  for (const std::shared_ptr<Value::Dict>& cell : live_dicts) {
    if (DictIsCyclic(cell)) {
      cyclic_dicts.push_back(cell);
    }
  }
  for (const std::shared_ptr<Value::List>& cell : cyclic_lists) {
    cell->clear();
  }
  for (const std::shared_ptr<Value::Dict>& cell : cyclic_dicts) {
    cell->clear();
  }
  lists_.clear();
  dicts_.clear();
}

void ContainerCycleBreaker::MaybeCompact() {
  if (lists_.size() + dicts_.size() < compact_threshold_) {
    return;
  }
  std::erase_if(lists_, [](const std::weak_ptr<Value::List>& weak) {
    return weak.expired();
  });
  std::erase_if(dicts_, [](const std::weak_ptr<Value::Dict>& weak) {
    return weak.expired();
  });
  compact_threshold_ =
      std::max<size_t>(1024, 2 * (lists_.size() + dicts_.size()));
}

void ContainerCycleBreaker::Track(const std::shared_ptr<Value::List>& cell) {
  MaybeCompact();
  lists_.push_back(cell);
}

void ContainerCycleBreaker::Track(const std::shared_ptr<Value::Dict>& cell) {
  MaybeCompact();
  dicts_.push_back(cell);
}

}  // namespace configerator
