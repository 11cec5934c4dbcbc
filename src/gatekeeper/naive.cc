#include "src/gatekeeper/naive.h"

namespace configerator {

Result<NaiveEvaluator> NaiveEvaluator::FromJson(const Json& config) {
  ASSIGN_OR_RETURN(CompiledProjectSpec spec, CompileProjectSpec(config));
  return NaiveEvaluator(std::move(spec));
}

bool NaiveEvaluator::Check(const UserContext& user, const LaserStore* laser) const {
  for (const CompiledRuleSpec& rule : spec_.rules) {
    if (RuleMatches(rule, user, laser)) {
      return GatekeeperDie(spec_.salt, user.user_id) < rule.pass_probability;
    }
  }
  return false;
}

}  // namespace configerator
