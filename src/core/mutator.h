// Mutator (paper Fig 3): the programmatic API automation tools use to drive
// config changes — traffic shifters, load balancers, experiment frameworks.
// Automation writes are raw configs (89% of raw-config updates in the paper
// are tool-made); they land through the landing strip like everything else
// and distribute through the same pipeline.

#ifndef SRC_CORE_MUTATOR_H_
#define SRC_CORE_MUTATOR_H_

#include <string>

#include "src/core/stack.h"
#include "src/json/json.h"

namespace configerator {

class Mutator {
 public:
  Mutator(ConfigManagementStack* stack, std::string tool_name)
      : stack_(stack), tool_name_(std::move(tool_name)) {}

  // Writes (creates or replaces) a raw config.
  Result<ObjectId> WriteRawConfig(const std::string& path, std::string content,
                                  const std::string& message);

  // Deletes a config.
  Result<ObjectId> DeleteConfig(const std::string& path, const std::string& message);

  // Read-modify-write of a single field of a JSON config (creating the
  // config as an object if absent). The typical automation primitive:
  // "shift region A's traffic weight to 0.3".
  Result<ObjectId> SetJsonField(const std::string& path, const std::string& field,
                                Json value, const std::string& message);

  // Installs or replaces a Gatekeeper project config at its
  // GatekeeperPath() (src/gatekeeper/compile.h).
  Result<ObjectId> SetGatekeeperProject(const Json& project_config,
                                        const std::string& message);

  // Rewrites the pass probability of rule `rule_index` of a project — the
  // 1% → 10% → 100% rollout knob.
  Result<ObjectId> SetRolloutFraction(const std::string& project, size_t rule_index,
                                      double fraction, const std::string& message);

 private:
  ConfigManagementStack* stack_;
  std::string tool_name_;
};

}  // namespace configerator

#endif  // SRC_CORE_MUTATOR_H_
