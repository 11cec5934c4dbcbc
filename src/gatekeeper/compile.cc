#include "src/gatekeeper/compile.h"

namespace configerator {

namespace {

constexpr std::string_view kPathPrefix = "gatekeeper/";
constexpr std::string_view kPathSuffix = ".json";

}  // namespace

Result<CompiledProjectSpec> CompileProjectSpec(const Json& config) {
  if (!config.is_object()) {
    return InvalidConfigError("gatekeeper project config must be an object");
  }
  const Json* name = config.Get("project");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return InvalidConfigError("gatekeeper project needs a 'project' name");
  }
  CompiledProjectSpec spec;
  spec.name = name->as_string();
  spec.salt = ProjectSalt(spec.name);

  const Json* rules = config.Get("rules");
  if (rules == nullptr || !rules->is_array()) {
    return InvalidConfigError("gatekeeper project needs a 'rules' list");
  }
  for (const Json& rule_spec : rules->as_array()) {
    if (!rule_spec.is_object()) {
      return InvalidConfigError("gatekeeper rule must be an object");
    }
    CompiledRuleSpec rule;
    const Json* prob = rule_spec.Get("pass_probability");
    if (prob == nullptr || !prob->is_number()) {
      return InvalidConfigError("gatekeeper rule needs 'pass_probability'");
    }
    rule.pass_probability = prob->as_double();
    if (rule.pass_probability < 0 || rule.pass_probability > 1) {
      return InvalidConfigError("pass_probability must be within [0, 1]");
    }
    const Json* restraints = rule_spec.Get("restraints");
    if (restraints == nullptr || !restraints->is_array()) {
      return InvalidConfigError("gatekeeper rule needs a 'restraints' list");
    }
    for (const Json& restraint_spec : restraints->as_array()) {
      ASSIGN_OR_RETURN(RestraintPtr restraint,
                       RestraintRegistry::Builtin().Create(restraint_spec));
      rule.restraints.push_back(
          std::shared_ptr<const Restraint>(std::move(restraint)));
    }
    spec.rules.push_back(std::move(rule));
  }
  return spec;
}

std::vector<RestraintFields> ProjectContextFields(const Json& config) {
  std::vector<RestraintFields> out;
  const Json* rules = config.Get("rules");
  if (rules == nullptr || !rules->is_array()) {
    return out;
  }
  for (const Json& rule : rules->as_array()) {
    const Json* restraints = rule.Get("restraints");
    if (restraints == nullptr || !restraints->is_array()) {
      continue;
    }
    for (const Json& restraint : restraints->as_array()) {
      const Json* type = restraint.Get("type");
      if (type != nullptr && type->is_string()) {
        out.push_back(
            {type->as_string(),
             &RestraintRegistry::Builtin().ContextFields(type->as_string())});
      }
    }
  }
  return out;
}

std::string GatekeeperPath(std::string_view project) {
  std::string path(kPathPrefix);
  path += project;
  path += kPathSuffix;
  return path;
}

std::optional<std::string> GatekeeperProjectAt(std::string_view path) {
  if (!path.starts_with(kPathPrefix) || !path.ends_with(kPathSuffix)) {
    return std::nullopt;
  }
  path.remove_prefix(kPathPrefix.size());
  path.remove_suffix(kPathSuffix.size());
  return std::string(path);
}

Result<CompiledProjectSpec> CompileProjectFile(std::string_view path,
                                               const std::string& content) {
  std::optional<std::string> project = GatekeeperProjectAt(path);
  if (!project.has_value()) {
    return InvalidArgumentError("not a gatekeeper config path: " +
                                std::string(path));
  }
  ASSIGN_OR_RETURN(Json config, Json::Parse(content));
  ASSIGN_OR_RETURN(CompiledProjectSpec spec, CompileProjectSpec(config));
  if (spec.name != *project) {
    return InvalidConfigError("gatekeeper project '" + spec.name +
                              "' must live at " + GatekeeperPath(spec.name) +
                              ", not " + std::string(path));
  }
  return spec;
}

}  // namespace configerator
