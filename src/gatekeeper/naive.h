// The naive reference evaluator for differential testing (following Xu &
// Legunsen's configuration-testing framing: test a config value by running
// the code that consumes it). NaiveEvaluator walks rules and restraints in
// *declared* order, keeps no statistics, and never reorders — the simplest
// possible semantics of a Gatekeeper config. The serving evaluator — the
// concurrent, cost-ordered GatekeeperRuntime — must agree with it on every
// (config, user) pair; the DST harness, the differential battery and the
// serving benchmark assert exactly that.
//
// Check() is const and touches no mutable state, so one NaiveEvaluator can
// be shared freely across threads.

#ifndef SRC_GATEKEEPER_NAIVE_H_
#define SRC_GATEKEEPER_NAIVE_H_

#include <string>

#include "src/gatekeeper/compile.h"

namespace configerator {

class NaiveEvaluator {
 public:
  static Result<NaiveEvaluator> FromJson(const Json& config);

  const std::string& name() const { return spec_.name; }
  size_t rule_count() const { return spec_.rules.size(); }

  // First rule whose conjunction holds (declared order) casts the die; no
  // rule matching → false. Thread-safe: no state is mutated.
  bool Check(const UserContext& user, const LaserStore* laser) const;

 private:
  explicit NaiveEvaluator(CompiledProjectSpec spec) : spec_(std::move(spec)) {}

  CompiledProjectSpec spec_;
};

}  // namespace configerator

#endif  // SRC_GATEKEEPER_NAIVE_H_
