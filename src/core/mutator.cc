#include "src/core/mutator.h"

#include "src/gatekeeper/compile.h"

namespace configerator {

Result<ObjectId> Mutator::WriteRawConfig(const std::string& path,
                                         std::string content,
                                         const std::string& message) {
  ProposedDiff diff = MakeProposedDiff(
      stack_->repo(), tool_name_, message,
      {FileWrite{path, std::move(content)}},
      stack_->sim().now() / kSimMillisecond);
  return stack_->landing_strip().Land(diff);
}

Result<ObjectId> Mutator::DeleteConfig(const std::string& path,
                                       const std::string& message) {
  ProposedDiff diff = MakeProposedDiff(
      stack_->repo(), tool_name_, message, {FileWrite{path, std::nullopt}},
      stack_->sim().now() / kSimMillisecond);
  return stack_->landing_strip().Land(diff);
}

Result<ObjectId> Mutator::SetJsonField(const std::string& path,
                                       const std::string& field, Json value,
                                       const std::string& message) {
  Json config = Json::MakeObject();
  auto existing = stack_->repo().ReadFile(path);
  if (existing.ok()) {
    ASSIGN_OR_RETURN(config, Json::Parse(*existing));
    if (!config.is_object()) {
      return InvalidConfigError("config '" + path + "' is not a JSON object");
    }
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  config.Set(field, std::move(value));
  return WriteRawConfig(path, config.DumpPretty(), message);
}

Result<ObjectId> Mutator::SetGatekeeperProject(const Json& project_config,
                                               const std::string& message) {
  // Validate by compiling the project before distributing it.
  ASSIGN_OR_RETURN(CompiledProjectSpec spec, CompileProjectSpec(project_config));
  return WriteRawConfig(GatekeeperPath(spec.name), project_config.DumpPretty(),
                        message);
}

Result<ObjectId> Mutator::SetRolloutFraction(const std::string& project,
                                             size_t rule_index, double fraction,
                                             const std::string& message) {
  if (fraction < 0 || fraction > 1) {
    return InvalidArgumentError("rollout fraction must be in [0, 1]");
  }
  std::string path = GatekeeperPath(project);
  ASSIGN_OR_RETURN(std::string text, stack_->repo().ReadFile(path));
  ASSIGN_OR_RETURN(Json config, Json::Parse(text));
  Json* rules = nullptr;
  if (config.is_object()) {
    auto& obj = config.as_object();
    auto it = obj.find("rules");
    if (it != obj.end() && it->second.is_array()) {
      rules = &it->second;
    }
  }
  if (rules == nullptr || rule_index >= rules->as_array().size()) {
    return InvalidConfigError("project '" + project + "' has no rule " +
                              std::to_string(rule_index));
  }
  rules->as_array()[rule_index].Set("pass_probability", Json(fraction));
  return SetGatekeeperProject(config, message);
}

}  // namespace configerator
