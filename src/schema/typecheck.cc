#include "src/schema/typecheck.h"

#include <algorithm>
#include <vector>

#include "src/util/strings.h"

namespace configerator {

namespace {

std::string Child(const std::string& path, const std::string& name) {
  if (path.empty()) {
    return name;
  }
  return path + "." + name;
}

}  // namespace

Status TypeCheckValue(const SchemaRegistry& registry, const Type& type,
                      const Json& value, const std::string& path) {
  switch (type.kind()) {
    case TypeKind::kBool:
      if (!value.is_bool()) {
        return InvalidConfigError(path + ": expected bool");
      }
      return OkStatus();
    case TypeKind::kI16:
    case TypeKind::kI32:
    case TypeKind::kI64: {
      if (!value.is_int()) {
        return InvalidConfigError(path + ": expected integer (" +
                                  type.ToString() + ")");
      }
      int64_t v = value.as_int();
      if (v < IntTypeMin(type.kind()) || v > IntTypeMax(type.kind())) {
        return InvalidConfigError(StrFormat("%s: value %lld out of range for %s",
                                            path.c_str(),
                                            static_cast<long long>(v),
                                            type.ToString().c_str()));
      }
      return OkStatus();
    }
    case TypeKind::kDouble:
      if (!value.is_number()) {
        return InvalidConfigError(path + ": expected number");
      }
      return OkStatus();
    case TypeKind::kString:
      if (!value.is_string()) {
        return InvalidConfigError(path + ": expected string");
      }
      return OkStatus();
    case TypeKind::kList: {
      if (!value.is_array()) {
        return InvalidConfigError(path + ": expected array");
      }
      size_t i = 0;
      for (const Json& elem : value.as_array()) {
        RETURN_IF_ERROR(TypeCheckValue(registry, type.element(), elem,
                                       StrFormat("%s[%zu]", path.c_str(), i)));
        ++i;
      }
      return OkStatus();
    }
    case TypeKind::kMap: {
      if (!value.is_object()) {
        return InvalidConfigError(path + ": expected object (map)");
      }
      for (const auto& [key, elem] : value.as_object()) {
        RETURN_IF_ERROR(
            TypeCheckValue(registry, type.element(), elem, Child(path, key)));
      }
      return OkStatus();
    }
    case TypeKind::kEnum: {
      const EnumDef* e = registry.FindEnum(type.name());
      if (e == nullptr) {
        return InternalError(path + ": unknown enum " + type.name());
      }
      if (value.is_int()) {
        if (!e->HasValue(value.as_int())) {
          return InvalidConfigError(StrFormat(
              "%s: %lld is not a value of enum %s", path.c_str(),
              static_cast<long long>(value.as_int()), type.name().c_str()));
        }
        return OkStatus();
      }
      if (value.is_string() && e->ValueOf(value.as_string()).has_value()) {
        return OkStatus();
      }
      return InvalidConfigError(path + ": expected value of enum " + type.name());
    }
    case TypeKind::kStruct: {
      // A StructRef that actually names an enum (forward reference at parse
      // time) is checked as an enum.
      if (registry.FindEnum(type.name()) != nullptr) {
        return TypeCheckValue(registry, Type::EnumRef(type.name()), value, path);
      }
      return TypeCheckStruct(registry, type.name(), value, path);
    }
  }
  return InternalError(path + ": unhandled type kind");
}

Status TypeCheckStruct(const SchemaRegistry& registry, std::string_view struct_name,
                       const Json& value, const std::string& path) {
  const StructDef* def = registry.FindStruct(struct_name);
  if (def == nullptr) {
    return NotFoundError("unknown struct '" + std::string(struct_name) + "'");
  }
  if (!value.is_object()) {
    return InvalidConfigError(path + ": expected object for struct " + def->name);
  }
  // Unknown-field (typo) detection.
  for (const auto& [key, field_value] : value.as_object()) {
    if (def->FindField(key) == nullptr) {
      return InvalidConfigError(StrFormat("%s: unknown field '%s' in struct %s",
                                          path.c_str(), key.c_str(),
                                          def->name.c_str()));
    }
  }
  for (const FieldDef& field : def->fields) {
    const Json* field_value = value.Get(field.name);
    if (field_value == nullptr || field_value->is_null()) {
      if (field.required && !field.default_value.has_value()) {
        return InvalidConfigError(StrFormat("%s: missing required field '%s'",
                                            path.c_str(), field.name.c_str()));
      }
      continue;
    }
    RETURN_IF_ERROR(TypeCheckValue(registry, field.type, *field_value,
                                   Child(path, field.name)));
  }
  return OkStatus();
}

namespace {

// `path` holds the structs being built on the way down to this value.
Json ZeroValue(const SchemaRegistry& registry, const Type& type,
               std::vector<const StructDef*>* path);

Json ZeroStruct(const SchemaRegistry& registry, const StructDef& def,
                std::vector<const StructDef*>* path) {
  path->push_back(&def);
  Json obj = Json::MakeObject();
  for (const FieldDef& field : def.fields) {
    Json value = field.default_value.has_value()
                     ? *field.default_value
                     : ZeroValue(registry, field.type, path);
    if (!value.is_null()) {
      obj.Set(field.name, std::move(value));
    }
  }
  path->pop_back();
  return obj;
}

Json ZeroValue(const SchemaRegistry& registry, const Type& type,
               std::vector<const StructDef*>* path) {
  switch (type.kind()) {
    case TypeKind::kBool:
      return Json(false);
    case TypeKind::kI16:
    case TypeKind::kI32:
    case TypeKind::kI64:
      return Json(int64_t{0});
    case TypeKind::kDouble:
      return Json(0.0);
    case TypeKind::kString:
      return Json("");
    case TypeKind::kList:
      return Json::MakeArray();
    case TypeKind::kMap:
      return Json::MakeObject();
    case TypeKind::kEnum: {
      const EnumDef* e = registry.FindEnum(type.name());
      if (e != nullptr && !e->values.empty()) {
        return Json(e->values.front().second);
      }
      return Json(int64_t{0});
    }
    case TypeKind::kStruct: {
      if (registry.FindEnum(type.name()) != nullptr) {
        return ZeroValue(registry, Type::EnumRef(type.name()), path);
      }
      const StructDef* s = registry.FindStruct(type.name());
      if (s == nullptr) {
        return Json::MakeObject();
      }
      // A struct already being built, or nested deeper than the IDL cap,
      // stays unset (null): that is where a struct that contains itself
      // stops.
      if (path->size() == static_cast<size_t>(kMaxIdlNestingDepth) ||
          std::find(path->begin(), path->end(), s) != path->end()) {
        return Json(nullptr);
      }
      return ZeroStruct(registry, *s, path);
    }
  }
  return Json(nullptr);
}

}  // namespace

Result<Json> ApplyDefaults(const SchemaRegistry& registry,
                           std::string_view struct_name, const Json& value) {
  const StructDef* def = registry.FindStruct(struct_name);
  if (def == nullptr) {
    return NotFoundError("unknown struct '" + std::string(struct_name) + "'");
  }
  if (!value.is_object()) {
    return InvalidConfigError("expected object for struct " + def->name);
  }
  Json out = value;
  for (const FieldDef& field : def->fields) {
    const Json* existing = out.Get(field.name);
    if (existing == nullptr || existing->is_null()) {
      if (field.default_value.has_value()) {
        out.Set(field.name, *field.default_value);
      }
      continue;
    }
    // Recurse into nested structs so their defaults materialize too.
    const Type* t = &field.type;
    if (t->kind() == TypeKind::kStruct &&
        registry.FindStruct(t->name()) != nullptr) {
      ASSIGN_OR_RETURN(Json nested, ApplyDefaults(registry, t->name(), *existing));
      out.Set(field.name, std::move(nested));
    }
  }
  return out;
}

Result<Json> DefaultInstance(const SchemaRegistry& registry,
                             std::string_view struct_name) {
  const StructDef* def = registry.FindStruct(struct_name);
  if (def == nullptr) {
    return NotFoundError("unknown struct '" + std::string(struct_name) + "'");
  }
  std::vector<const StructDef*> path;
  return ZeroStruct(registry, *def, &path);
}

}  // namespace configerator
