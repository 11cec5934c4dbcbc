#include "src/core/ui.h"

#include "src/schema/typecheck.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

// Applies one dotted-path edit to a JSON object tree, creating intermediate
// objects as needed. Returns the old value (null if absent).
Result<Json> ApplyFieldEdit(Json* root, const std::string& field_path,
                            const Json& new_value) {
  std::vector<std::string> segments = StrSplit(field_path, '.');
  Json* node = root;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (!node->is_object()) {
      return InvalidArgumentError("field path '" + field_path +
                                  "' descends into a non-object");
    }
    if (!node->Has(segments[i])) {
      node->Set(segments[i], Json::MakeObject());
    }
    node = &node->as_object().at(segments[i]);
  }
  if (!node->is_object()) {
    return InvalidArgumentError("field path '" + field_path +
                                "' descends into a non-object");
  }
  const std::string& leaf = segments.back();
  Json old_value;  // null
  if (const Json* existing = node->Get(leaf)) {
    old_value = *existing;
  }
  node->Set(leaf, new_value);
  return old_value;
}

}  // namespace

std::string ConfigUi::CslLiteral(const Json& value, int indent) {
  std::string pad(static_cast<size_t>(indent) * 4, ' ');
  std::string child_pad(static_cast<size_t>(indent + 1) * 4, ' ');
  switch (value.kind()) {
    case Json::Kind::kNull:
      return "None";
    case Json::Kind::kBool:
      return value.as_bool() ? "True" : "False";
    case Json::Kind::kInt:
      return std::to_string(value.as_int());
    case Json::Kind::kDouble: {
      std::string out = StrFormat("%.17g", value.as_double());
      // Ensure it lexes as a float, not an int.
      if (out.find('.') == std::string::npos &&
          out.find('e') == std::string::npos &&
          out.find("inf") == std::string::npos &&
          out.find("nan") == std::string::npos) {
        out += ".0";
      }
      return out;
    }
    case Json::Kind::kString: {
      std::string out;
      JsonEscape(value.as_string(), &out);
      return out;
    }
    case Json::Kind::kArray: {
      if (value.size() == 0) {
        return "[]";
      }
      std::string out = "[\n";
      for (const Json& item : value.as_array()) {
        out += child_pad + CslLiteral(item, indent + 1) + ",\n";
      }
      out += pad + "]";
      return out;
    }
    case Json::Kind::kObject: {
      if (value.size() == 0) {
        return "{}";
      }
      std::string out = "{\n";
      for (const auto& [key, item] : value.as_object()) {
        std::string escaped_key;
        JsonEscape(key, &escaped_key);
        out += child_pad + escaped_key + ": " + CslLiteral(item, indent + 1) +
               ",\n";
      }
      out += pad + "}";
      return out;
    }
  }
  return "None";
}

std::string ConfigUi::GenerateSource(const std::string& schema_path,
                                     const std::string& struct_name,
                                     const Json& value) {
  std::string source;
  source += "# Generated by the Configerator UI; do not edit by hand.\n";
  source += "import_thrift(\"" + schema_path + "\")\n";
  source += "cfg = " + struct_name + "(\n";
  if (value.is_object()) {
    for (const auto& [field, field_value] : value.as_object()) {
      source += "    " + field + "=" + CslLiteral(field_value, 1) + ",\n";
    }
  }
  source += ")\n";
  source += "export_if_last(cfg)\n";
  return source;
}

Result<PendingChange> ConfigUi::EditConfig(const std::string& user,
                                           const std::string& config_path,
                                           const std::string& schema_path,
                                           const std::string& struct_name,
                                           const std::vector<UiFieldEdit>& edits) {
  if (!config_path.ends_with(".cconf")) {
    return InvalidArgumentError("UI edits target .cconf sources");
  }

  // Load the schema from the repo's head.
  SchemaRegistry registry;
  const Repository* repo = &stack_->repo();
  RETURN_IF_ERROR(registry.Load(schema_path, [repo](const std::string& path) {
    return repo->ReadFile(path);
  }));
  RETURN_IF_ERROR(registry.ResolveAll());
  if (registry.FindStruct(struct_name) == nullptr) {
    return NotFoundError("schema file defines no struct '" + struct_name + "'");
  }

  // Current value: the generated JSON at head, or a default instance.
  Json value;
  bool creating = false;
  std::string json_path = ConfigCompiler::OutputPathFor(config_path);
  auto current = stack_->repo().ReadFile(json_path);
  if (current.ok()) {
    ASSIGN_OR_RETURN(value, Json::Parse(*current));
  } else if (current.status().code() == StatusCode::kNotFound) {
    creating = true;
    ASSIGN_OR_RETURN(value, DefaultInstance(registry, struct_name));
  } else {
    return current.status();
  }

  // Apply edits and build the operation log for review.
  std::vector<std::string> operations;
  if (creating) {
    operations.push_back("Created " + struct_name + " config " + config_path);
  }
  for (const UiFieldEdit& edit : edits) {
    ASSIGN_OR_RETURN(Json old_value,
                     ApplyFieldEdit(&value, edit.field_path, edit.new_value));
    operations.push_back(StrFormat(
        "Updated %s from %s to %s", edit.field_path.c_str(),
        old_value.Dump().c_str(), edit.new_value.Dump().c_str()));
  }

  // Type-check before generating anything: a UI edit cannot produce an
  // invalid config.
  RETURN_IF_ERROR(TypeCheckStruct(registry, struct_name, value, config_path));

  std::string source = GenerateSource(schema_path, struct_name, value);
  std::string message = StrJoin(operations, "\n");
  return stack_->ProposeChange("ui:" + user, message,
                               {FileWrite{config_path, std::move(source)}});
}

}  // namespace configerator
