// Gating rule family (G001..G006): semantic analysis of Gatekeeper project
// JSON. Each project rule is a conjunction of restraints plus a sampling
// probability, so whole error classes are statically decidable: X AND NOT X
// never passes, a rule behind an always-pass rule never runs, and a bucket
// spanning [0, 1) gates nobody. These all compile fine — CompileProjectSpec
// accepts them — and then silently do the wrong thing in production, which is
// exactly the class of error the paper's layered defenses exist to catch
// before distribution.

#include <string>
#include <vector>

#include "src/analysis/rules.h"
#include "src/gatekeeper/restraint.h"

namespace configerator {
namespace analysis {

namespace {

// A restraint spec: its JSON, which G001/G004/G005 compare, and the
// restraint its factory builds from it, which G002/G003/G006 ask whether its
// verdict depends on the user. Null when the factory rejects the spec.
struct RestraintView {
  std::string type;
  const Json* params;  // Never null (shared empty object when absent).
  bool negate = false;
  RestraintPtr restraint;
};

const Json& EmptyParams() {
  static const Json* empty = new Json(Json::MakeObject());
  return *empty;
}

RestraintView DecodeRestraint(const Json& spec) {
  RestraintView view;  // Get() finds nothing in a spec that is no object.
  const Json* type = spec.Get("type");
  if (type != nullptr && type->is_string()) {
    view.type = type->as_string();
  }
  const Json* params = spec.Get("params");
  view.params = params != nullptr ? params : &EmptyParams();
  const Json* negate = spec.Get("negate");
  view.negate = negate != nullptr && negate->is_bool() && negate->as_bool();
  auto restraint = RestraintRegistry::Builtin().Create(spec);
  if (restraint.ok()) {
    view.restraint = std::move(*restraint);
  }
  return view;
}

}  // namespace

void RunGatingRules(const std::string& path, const Json& config,
                    std::vector<LintDiagnostic>* diags) {
  auto report = [&](const char* rule_id, LintSeverity severity,
                    std::string message, std::string suggestion = "") {
    LintDiagnostic diag;
    diag.rule_id = rule_id;
    diag.severity = severity;
    diag.file = path;
    diag.message = std::move(message);
    diag.suggestion = std::move(suggestion);
    diags->push_back(std::move(diag));
  };

  const Json* rules = config.Get("rules");
  if (rules == nullptr || !rules->is_array()) {
    return;  // CompileProjectSpec rejects this shape; nothing for lint to add.
  }

  // Index of the first rule that matches every user with probability 1 —
  // everything after it is unreachable.
  int always_pass_rule = -1;

  for (size_t i = 0; i < rules->as_array().size(); ++i) {
    const Json& rule_spec = rules->as_array()[i];
    if (!rule_spec.is_object()) {
      continue;
    }
    std::string rule_label = "rule #" + std::to_string(i);

    if (always_pass_rule >= 0) {
      report("G002", LintSeverity::kWarning,
             rule_label + " is unreachable: rule #" +
                 std::to_string(always_pass_rule) +
                 " already matches every user at 100%",
             "delete this rule or reorder it first");
    }

    const Json* prob = rule_spec.Get("pass_probability");
    double pass_probability =
        prob != nullptr && prob->is_number() ? prob->as_double() : -1;
    if (pass_probability == 0) {
      report("G003", LintSeverity::kWarning,
             rule_label + " has pass_probability 0, so it can never pass "
                          "(it only masks later rules)",
             "remove the rule, or set a non-zero probability");
    }

    const Json* restraints = rule_spec.Get("restraints");
    if (restraints == nullptr || !restraints->is_array()) {
      continue;
    }

    std::vector<RestraintView> views;
    views.reserve(restraints->as_array().size());
    for (const Json& spec : restraints->as_array()) {
      RestraintView view = DecodeRestraint(spec);
      if (!view.type.empty() && !RestraintRegistry::Builtin().Has(view.type)) {
        report("G004", LintSeverity::kError,
               rule_label + " uses unknown restraint type '" + view.type + "'",
               "use one of the builtin restraint types or fix the type name");
      }
      views.push_back(std::move(view));
    }

    bool conjunction_always_true = true;
    bool conjunction_dead = false;
    for (const RestraintView& view : views) {
      if (view.restraint == nullptr || !view.restraint->IgnoresContext()) {
        conjunction_always_true = false;
        continue;
      }
      // The same verdict, negation applied, for every user.
      if (!view.restraint->Test(UserContext(), nullptr)) {
        conjunction_dead = true;
      }
      // A type that declares context fields but ignores the context is a
      // bucket spanning every user.
      if (!RestraintRegistry::Builtin().ContextFields(view.type).empty() &&
          !view.negate) {
        report("G006", LintSeverity::kWarning,
               rule_label + ": " + view.type +
                   " bucket spans all users and filters nothing",
               "narrow the range or drop the restraint");
      }
    }
    if (conjunction_dead) {
      report("G003", LintSeverity::kWarning,
             rule_label + " contains an always-false restraint, so the "
                          "conjunction can never pass",
             "remove the rule or fix the restraint");
    }

    // Pairwise duplicate / contradiction detection.
    for (size_t a = 0; a < views.size(); ++a) {
      for (size_t b = a + 1; b < views.size(); ++b) {
        if (views[a].type.empty() || views[a].type != views[b].type ||
            !(*views[a].params == *views[b].params)) {
          continue;
        }
        if (views[a].negate != views[b].negate) {
          report("G001", LintSeverity::kError,
                 rule_label + ": restraint '" + views[a].type +
                     "' appears both negated and non-negated with identical "
                     "params — the conjunction is unsatisfiable",
                 "delete one side of the contradiction");
        } else {
          report("G005", LintSeverity::kWarning,
                 rule_label + ": restraint '" + views[a].type +
                     "' is duplicated with identical params",
                 "delete the duplicate");
        }
      }
    }

    if (conjunction_always_true && !conjunction_dead &&
        pass_probability >= 1.0 && always_pass_rule < 0) {
      always_pass_rule = static_cast<int>(i);
    }
  }
}

}  // namespace analysis
}  // namespace configerator
