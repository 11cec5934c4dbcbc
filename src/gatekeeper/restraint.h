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

// A context value at which a restraint's verdict can flip: one boundary
// input for analyses that enumerate contexts instead of reading params.
struct ContextProbe {
  std::string field;  // As the restraint's type declares it: "country", ...
  std::string attr;   // The attribute, for string_attrs and numeric_attrs.
  Json value;         // Sets the field as SetContextField does.

  // "country", or "string_attrs.tier" for an attribute.
  std::string Name() const { return attr.empty() ? field : field + "." + attr; }
};

// A compiled restraint instance, ready to evaluate. Only the restraint
// knows its params: analyses ask it the two questions below instead of
// decoding the spec's JSON again.
class Restraint {
 public:
  virtual ~Restraint() = default;

  // Pure predicate over the context (and read-only Laser).
  virtual bool Evaluate(const UserContext& user, const LaserStore* laser) const = 0;

  // The context values at which Evaluate can flip, in the order the spec
  // declares them (duplicates possible): member values, thresholds and
  // their neighbours, bucket edges. Each names a field the type declares.
  // Empty for a restraint that reads no context, and for laser, whose
  // store the analyses do not model.
  virtual std::vector<ContextProbe> Probes() const { return {}; }

  // True if Evaluate, before negation, returns the same verdict for every
  // context: always, or a bucket spanning every user. That verdict is
  // Evaluate(UserContext(), nullptr).
  virtual bool IgnoresContext() const { return false; }

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
// The factory validates params and rejects unknown types. There is one
// table, Builtin(), and the builtin types are registered as it is built.
class RestraintRegistry {
 public:
  // The table of every builtin restraint type.
  static const RestraintRegistry& Builtin();

  Result<RestraintPtr> Create(const Json& spec) const;

  std::vector<std::string> TypeNames() const;
  bool Has(const std::string& type) const { return types_.count(type) > 0; }

  // The context fields `type` declared at registration; empty if unknown.
  const std::vector<std::string>& ContextFields(const std::string& type) const;

 private:
  using Factory = std::function<Result<RestraintPtr>(const Json& params)>;
  struct Entry {
    std::vector<std::string> context_fields;
    Factory factory;
  };

  RestraintRegistry();  // Registers the builtin types.

  // `context_fields` names the UserContext fields (kContextFields) that
  // restraints of `type` read: the inputs semdiff and the invariant checker
  // reason about. Every probe a restraint of `type` reports names one.
  void Register(const std::string& type, std::vector<std::string> context_fields,
                Factory factory);

  std::map<std::string, Entry> types_;
};

}  // namespace configerator

#endif  // SRC_GATEKEEPER_RESTRAINT_H_
