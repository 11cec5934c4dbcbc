// A seeded generator of Gatekeeper project configs for tests: 1-4 rules of
// 1-3 restraints drawn from every builtin restraint type, with random
// params, negation and pass probabilities (some 0). Values come from small
// pools, so two projects often share restraints, and a project can be
// weakened or strengthened into a related one. Each expression draws from
// the generator at most once, so the output does not depend on the
// compiler's order of evaluation.

#ifndef TESTS_GATE_GEN_H_
#define TESTS_GATE_GEN_H_

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {

inline constexpr const char* kBuiltinRestraintTypes[] = {
    "always",           "employee",           "country",
    "locale",           "app",                "device",
    "platform",         "min_friend_count",   "max_friend_count",
    "min_account_age",  "new_user",           "min_app_version",
    "id_in",            "id_mod",             "hash_range",
    "string_attr_equals", "numeric_attr_gt",  "numeric_attr_lt",
    "has_attr",         "laser",
};

inline bool IsAttributeType(const std::string& type) {
  return type == "string_attr_equals" || type == "has_attr" ||
         type == "numeric_attr_gt" || type == "numeric_attr_lt";
}

struct GenRestraint {
  std::string type;
  std::string params;  // JSON object text.
  bool negate = false;

  std::string Text() const {
    return "{\"type\": \"" + type + "\"" + (negate ? ", \"negate\": true" : "") +
           ", \"params\": " + params + "}";
  }
};

struct GenRule {
  std::vector<GenRestraint> restraints;
  std::string pass_probability;
};

struct GenProject {
  std::vector<GenRule> rules;

  bool HasAttribute() const {
    for (const GenRule& rule : rules) {
      for (const GenRestraint& restraint : rule.restraints) {
        if (IsAttributeType(restraint.type)) {
          return true;
        }
      }
    }
    return false;
  }

  // The project config, named `name`.
  std::string Text(const std::string& name) const {
    std::string out = "{\"project\": \"" + name + "\", \"rules\": [";
    for (size_t i = 0; i < rules.size(); ++i) {
      out += i > 0 ? ", " : "";
      out += "{\"pass_probability\": " + rules[i].pass_probability +
             ", \"restraints\": [";
      for (size_t j = 0; j < rules[i].restraints.size(); ++j) {
        out += j > 0 ? ", " : "";
        out += rules[i].restraints[j].Text();
      }
      out += "]}";
    }
    return out + "]}";
  }
};

class GateGen {
 public:
  explicit GateGen(uint64_t seed) : rng_(seed) {}

  GenProject Project() {
    GenProject project;
    int rules = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int i = 0; i < rules; ++i) {
      GenRule rule;
      int restraints = 1 + static_cast<int>(rng_.NextBounded(3));
      for (int j = 0; j < restraints; ++j) {
        rule.restraints.push_back(Restraint());
      }
      rule.pass_probability = Probability();
      project.rules.push_back(std::move(rule));
    }
    return project;
  }

  // A copy of `project` with one restraint dropped from each rule that has
  // more than one: every rule gets weaker, so implication often holds.
  GenProject Weaken(GenProject project) {
    for (GenRule& rule : project.rules) {
      if (rule.restraints.size() > 1) {
        rule.restraints.erase(rule.restraints.begin() +
                              rng_.NextBounded(rule.restraints.size()));
      }
    }
    return project;
  }

  // A copy of `project` with one more restraint in a random rule.
  GenProject Strengthen(GenProject project) {
    GenRule& rule = project.rules[rng_.NextBounded(project.rules.size())];
    rule.restraints.push_back(Restraint());
    return project;
  }

  uint64_t Bounded(uint64_t bound) { return rng_.NextBounded(bound); }
  bool Bool(double p) { return rng_.NextBool(p); }

 private:
  std::string Probability() {
    switch (rng_.NextBounded(7)) {
      case 0:
        return "0";
      case 1:
        return "0.5";
      case 2:
        return "0.25";
      default:
        return "1.0";
    }
  }

  std::string Pick(std::initializer_list<const char*> values) {
    return *(values.begin() + rng_.NextBounded(values.size()));
  }

  std::string StringList(std::initializer_list<const char*> pool) {
    int n = 1 + static_cast<int>(rng_.NextBounded(3));
    std::string out = "[";
    for (int i = 0; i < n; ++i) {
      out += (i > 0 ? ", \"" : "\"") + Pick(pool) + "\"";
    }
    return out + "]";
  }

  std::string Int(int64_t lo, int64_t hi) {
    return StrFormat("%lld", static_cast<long long>(rng_.NextInRange(lo, hi)));
  }

  GenRestraint Restraint() {
    GenRestraint r;
    r.type = kBuiltinRestraintTypes[rng_.NextBounded(
        std::size(kBuiltinRestraintTypes))];
    r.negate = rng_.NextBool(0.25);
    const std::string& t = r.type;
    if (t == "always") {
      switch (rng_.NextBounded(3)) {
        case 0:
          r.params = "{}";
          break;
        case 1:
          r.params = "{\"value\": true}";
          break;
        default:
          r.params = "{\"value\": false}";
          break;
      }
    } else if (t == "employee") {
      r.params = "{}";
    } else if (t == "country") {
      r.params = "{\"countries\": " + StringList({"US", "CA", "BR", "IN"}) + "}";
    } else if (t == "locale") {
      r.params = "{\"locales\": " + StringList({"en_US", "pt_BR", "fr_CA"}) + "}";
    } else if (t == "app") {
      r.params = "{\"apps\": " + StringList({"fb4a", "messenger", "www"}) + "}";
    } else if (t == "device") {
      r.params = "{\"devices\": " + StringList({"iphone6", "galaxy_s5"}) + "}";
    } else if (t == "platform") {
      r.params = "{\"platforms\": " + StringList({"ios", "android", "www"}) + "}";
    } else if (t == "min_friend_count" || t == "max_friend_count") {
      r.params = "{\"count\": " + Int(0, 12) + "}";
    } else if (t == "min_account_age") {
      r.params = "{\"days\": " + Int(0, 30) + "}";
    } else if (t == "new_user") {
      r.params = "{\"max_days\": " + Int(0, 30) + "}";
    } else if (t == "min_app_version") {
      r.params = "{\"version\": " + Int(0, 200) + "}";
    } else if (t == "id_in") {
      int n = 1 + static_cast<int>(rng_.NextBounded(6));
      std::string ids = "[";
      for (int i = 0; i < n; ++i) {
        ids += (i > 0 ? ", " : "") + Int(-3, 12);
      }
      r.params = "{\"ids\": " + ids + "]}";
    } else if (t == "id_mod") {
      int64_t mod = rng_.NextInRange(1, 8);
      int64_t lo = rng_.NextInRange(0, mod - 1);
      int64_t hi = rng_.NextInRange(lo + 1, mod);
      if (rng_.NextBool(0.3)) {
        lo = 0;
        hi = mod;  // Spans every user.
      }
      r.params = StrFormat("{\"mod\": %lld, \"lo\": %lld, \"hi\": %lld}",
                           static_cast<long long>(mod),
                           static_cast<long long>(lo),
                           static_cast<long long>(hi));
    } else if (t == "hash_range") {
      std::string range = rng_.NextBool(0.3)
                              ? "\"lo\": 0.0, \"hi\": 1.0"
                              : Pick({"\"lo\": 0.0, \"hi\": 0.5",
                                      "\"lo\": 0.25, \"hi\": 0.75",
                                      "\"lo\": 0.5, \"hi\": 1.0"});
      r.params = "{\"salt\": \"" + Pick({"s1", "s2"}) + "\", " + range + "}";
    } else if (t == "string_attr_equals") {
      std::string attr = Pick({"tier", "plan"});
      r.params = "{\"attr\": \"" + attr + "\", \"value\": \"" +
                 Pick({"gold", "silver"}) + "\"}";
    } else if (t == "numeric_attr_gt" || t == "numeric_attr_lt") {
      std::string attr = Pick({"score", "tier"});
      r.params = "{\"attr\": \"" + attr + "\", \"threshold\": " +
                 Pick({"0", "2", "2.5", "10"}) + "}";
    } else if (t == "has_attr") {
      r.params = "{\"attr\": \"" + Pick({"tier", "plan", "score"}) + "\"}";
    } else {  // laser
      r.params = "{\"project\": \"" + Pick({"Trend", "Spam"}) +
                 "\", \"threshold\": 0.5}";
    }
    // Rarely a param the factory rejects: the project does not compile, and
    // the invariants over it are unresolved.
    if (rng_.NextBool(0.005)) {
      r.params = "{\"bogus\": 1}";
      r.type = "country";
    }
    return r;
  }

  Rng rng_;
};

}  // namespace configerator

#endif  // TESTS_GATE_GEN_H_
