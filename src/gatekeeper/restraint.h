// Restraints (paper §4): the statically-implemented predicate vocabulary
// from which Gatekeeper projects are composed dynamically through config.
// "Currently, hundreds of restraints have been implemented" — this library
// ships the representative core: identity, geo, device/app, account-shape,
// bucketing, attribute comparisons, and the Laser integration. Negation is
// built into every restraint, so if-statements of negated restraints give
// the gating logic full DNF expressiveness.

#ifndef SRC_GATEKEEPER_RESTRAINT_H_
#define SRC_GATEKEEPER_RESTRAINT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/gatekeeper/context.h"
#include "src/gatekeeper/laser.h"
#include "src/json/json.h"
#include "src/util/status.h"

namespace configerator {

// A compiled restraint instance, ready to evaluate.
class Restraint {
 public:
  virtual ~Restraint() = default;

  // Pure predicate over the context (and read-only Laser).
  virtual bool Evaluate(const UserContext& user, const LaserStore* laser) const = 0;

  // Relative evaluation cost (1.0 = trivial field compare). The runtime's
  // cost-based optimizer uses this together with observed pass rates.
  virtual double cost() const { return 1.0; }

  virtual std::string_view type_name() const = 0;

  bool negate() const { return negate_; }
  void set_negate(bool negate) { negate_ = negate; }

  // Evaluate() with negation applied.
  bool Test(const UserContext& user, const LaserStore* laser) const {
    bool result = Evaluate(user, laser);
    return negate_ ? !result : result;
  }

 private:
  bool negate_ = false;
};

using RestraintPtr = std::unique_ptr<Restraint>;

// Builds a restraint from its JSON spec:
//   {"type": "country", "negate": false, "params": {"countries": ["US","CA"]}}
// The factory validates params and rejects unknown types.
class RestraintRegistry {
 public:
  using Factory = std::function<Result<RestraintPtr>(const Json& params)>;

  // Registry preloaded with all builtin restraint types.
  static const RestraintRegistry& Builtin();

  // `context_fields` names the UserContext fields restraints of `type`
  // read: the inputs provenance, semdiff and the invariant checker reason
  // about.
  void Register(const std::string& type, std::vector<std::string> context_fields,
                Factory factory);

  Result<RestraintPtr> Create(const Json& spec) const;

  std::vector<std::string> TypeNames() const;

  // The context fields `type` declared at registration; empty if unknown.
  const std::vector<std::string>& ContextFields(const std::string& type) const;

 private:
  struct Entry {
    std::vector<std::string> context_fields;
    Factory factory;
  };
  std::map<std::string, Entry> types_;
};

}  // namespace configerator

#endif  // SRC_GATEKEEPER_RESTRAINT_H_
