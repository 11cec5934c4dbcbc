#include "src/sitevars/sitevars.h"

#include <algorithm>

#include "src/lang/interp.h"
#include "src/util/strings.h"

namespace configerator {

std::string_view SitevarTypeName(SitevarType type) {
  switch (type) {
    case SitevarType::kUnknown:
      return "unknown";
    case SitevarType::kBool:
      return "bool";
    case SitevarType::kInt:
      return "int";
    case SitevarType::kDouble:
      return "double";
    case SitevarType::kGeneralString:
      return "string";
    case SitevarType::kJsonString:
      return "json-string";
    case SitevarType::kTimestampString:
      return "timestamp-string";
    case SitevarType::kList:
      return "list";
    case SitevarType::kObject:
      return "object";
  }
  return "?";
}

SitevarType ClassifySitevarValue(const Json& value) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      return SitevarType::kUnknown;
    case Json::Kind::kBool:
      return SitevarType::kBool;
    case Json::Kind::kInt:
      return SitevarType::kInt;
    case Json::Kind::kDouble:
      return SitevarType::kDouble;
    case Json::Kind::kArray:
      return SitevarType::kList;
    case Json::Kind::kObject:
      return SitevarType::kObject;
    case Json::Kind::kString: {
      const std::string& s = value.as_string();
      if (LooksLikeTimestamp(s)) {
        return SitevarType::kTimestampString;
      }
      // A JSON string must parse AND look structured (object/array), or a
      // bare "123" would be misclassified.
      std::string_view trimmed = StrTrim(s);
      if (!trimmed.empty() && (trimmed.front() == '{' || trimmed.front() == '[')) {
        if (Json::Parse(trimmed).ok()) {
          return SitevarType::kJsonString;
        }
      }
      return SitevarType::kGeneralString;
    }
  }
  return SitevarType::kUnknown;
}

namespace {

// Evaluates `module` in `interp`'s session and returns its global `name`
// (None if it defines none).
Result<Value> EvalGlobal(Interp& interp, const Module& module,
                         const std::string& name) {
  auto globals = interp.NewEnvironment(interp.MakeBaseEnvironment());
  RETURN_IF_ERROR(interp.EvalModule(module, globals, /*exports_enabled=*/false));
  Value* value = globals->Find(name);
  return value != nullptr ? *value : Value::Null();
}

// Computes the majority type over a history window.
SitevarType MajorityType(const std::deque<Json>& history) {
  std::map<SitevarType, size_t> counts;
  for (const Json& value : history) {
    ++counts[ClassifySitevarValue(value)];
  }
  SitevarType best = SitevarType::kUnknown;
  size_t best_count = 0;
  for (const auto& [type, count] : counts) {
    if (count > best_count) {
      best = type;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

Result<SitevarUpdateResult> SitevarStore::Set(const std::string& name,
                                              const std::string& expression,
                                              const std::string& author) {
  // Wrap the expression into a single assignment and evaluate the module.
  ASSIGN_OR_RETURN(
      std::shared_ptr<Module> module,
      ParseCsl("__sitevar_value = (" + expression + ")\n", "<sitevar>"));
  Interp interp(nullptr, Interp::Hooks{});  // No imports or exports.
  ASSIGN_OR_RETURN(Value evaluated, EvalGlobal(interp, *module, "__sitevar_value"));
  ASSIGN_OR_RETURN(Json value, evaluated.ToJson());

  SitevarUpdateResult result;

  auto it = sitevars_.find(name);
  // The checker guards every update, including the first value ever set.
  if (it != sitevars_.end() && it->second.checker != nullptr) {
    ASSIGN_OR_RETURN(Value checker,
                     EvalGlobal(interp, *it->second.checker, "check"));
    ASSIGN_OR_RETURN(Value arg, Value::FromJson(value, interp.arena()));
    auto check = interp.CallValue(checker, {std::move(arg)}, {});
    if (!check.ok()) {
      return InvalidConfigError(StrFormat("sitevar '%s' checker rejected: %s",
                                          name.c_str(),
                                          check.status().message().c_str()));
    }
    if (check->is_bool() && !check->as_bool()) {
      return InvalidConfigError("sitevar '" + name + "' checker returned False");
    }
  }
  if (it != sitevars_.end() && !it->second.history.empty()) {
    SitevarRecord& record = it->second;
    // Top-level type deviation warning.
    SitevarType historical = MajorityType(record.history);
    SitevarType incoming = ClassifySitevarValue(value);
    if (historical != SitevarType::kUnknown && incoming != historical) {
      result.warnings.push_back(StrFormat(
          "sitevar '%s' has historically been %s; this update is %s",
          name.c_str(), std::string(SitevarTypeName(historical)).c_str(),
          std::string(SitevarTypeName(incoming)).c_str()));
    }
    // Per-field deviation warnings for object sitevars.
    if (incoming == SitevarType::kObject && historical == SitevarType::kObject) {
      std::map<std::string, SitevarType> field_types = InferredFieldTypes(name);
      for (const auto& [field, field_value] : value.as_object()) {
        auto ft = field_types.find(field);
        if (ft == field_types.end()) {
          continue;  // New field: no history to deviate from.
        }
        SitevarType incoming_field = ClassifySitevarValue(field_value);
        if (ft->second != SitevarType::kUnknown && incoming_field != ft->second) {
          result.warnings.push_back(StrFormat(
              "sitevar '%s' field '%s' has historically been %s; this update "
              "is %s",
              name.c_str(), field.c_str(),
              std::string(SitevarTypeName(ft->second)).c_str(),
              std::string(SitevarTypeName(incoming_field)).c_str()));
        }
      }
    }
  }

  SitevarRecord& record = sitevars_[name];
  record.history.push_back(value);
  record.authors.push_back(author);
  while (record.history.size() > kMaxHistory) {
    record.history.pop_front();
    record.authors.pop_front();
  }
  result.value = std::move(value);
  return result;
}

Result<Json> SitevarStore::Get(const std::string& name) const {
  auto it = sitevars_.find(name);
  if (it == sitevars_.end() || it->second.history.empty()) {
    return NotFoundError("no sitevar '" + name + "'");
  }
  return it->second.history.back();
}

Status SitevarStore::SetChecker(const std::string& name,
                                const std::string& csl_source) {
  ASSIGN_OR_RETURN(std::shared_ptr<Module> module,
                   ParseCsl(csl_source, "<checker:" + name + ">"));
  Interp interp(nullptr, Interp::Hooks{});
  ASSIGN_OR_RETURN(Value check, EvalGlobal(interp, *module, "check"));
  if (!check.is_callable()) {
    return InvalidArgumentError("checker source must define check(value)");
  }
  sitevars_[name].checker = std::move(module);
  return OkStatus();
}

SitevarType SitevarStore::InferredType(const std::string& name) const {
  auto it = sitevars_.find(name);
  if (it == sitevars_.end() || it->second.history.empty()) {
    return SitevarType::kUnknown;
  }
  return MajorityType(it->second.history);
}

std::map<std::string, SitevarType> SitevarStore::InferredFieldTypes(
    const std::string& name) const {
  std::map<std::string, SitevarType> out;
  auto it = sitevars_.find(name);
  if (it == sitevars_.end()) {
    return out;
  }
  // Majority type per field across historical object values.
  std::map<std::string, std::map<SitevarType, size_t>> counts;
  for (const Json& value : it->second.history) {
    if (!value.is_object()) {
      continue;
    }
    for (const auto& [field, field_value] : value.as_object()) {
      ++counts[field][ClassifySitevarValue(field_value)];
    }
  }
  for (const auto& [field, type_counts] : counts) {
    SitevarType best = SitevarType::kUnknown;
    size_t best_count = 0;
    for (const auto& [type, count] : type_counts) {
      if (count > best_count) {
        best = type;
        best_count = count;
      }
    }
    out[field] = best;
  }
  return out;
}

std::vector<std::string> SitevarStore::UpdateAuthors(const std::string& name) const {
  auto it = sitevars_.find(name);
  if (it == sitevars_.end()) {
    return {};
  }
  return {it->second.authors.begin(), it->second.authors.end()};
}

}  // namespace configerator
