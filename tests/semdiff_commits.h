// The semantic differ's seeded commit generator, shared by the suites that
// replay its commits: a five-file config tree (two modules, two entries and
// a Gatekeeper project) and ten kinds of random edit, from comment-only
// no-ops to guard flips and restraint swaps.

#ifndef TESTS_SEMDIFF_COMMITS_H_
#define TESTS_SEMDIFF_COMMITS_H_

#include <string>
#include <vector>

#include "src/gatekeeper/context.h"
#include "src/lang/compiler.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {

struct SemdiffTree {
  int a = 7;
  std::string c = "alpha";
  bool d = true;
  int scale = 10;
  int arm_on = 4096;
  int arm_off = 512;
  int lib_rev = 0;     // Comment revision counters (semantic no-ops).
  int entry_rev = 0;
  bool gk_employee = true;
  double gk_prob = 0.5;
  bool gk_pretty = false;

  std::string Lib() const {
    return StrFormat("# rev %d\nA = %d\nB = A * 2\nC = \"%s\"\nD = %s\n",
                     lib_rev, a, c.c_str(), d ? "True" : "False");
  }
  std::string Util() const {
    return StrFormat("SCALE = %d\nOFFSET = SCALE + 1\n", scale);
  }
  std::string Entry1() const {
    return StrFormat(
        "# rev %d\n"
        "import_python(\"lib.cinc\", \"*\")\n"
        "import_python(\"util.cinc\", \"SCALE\")\n"
        "export_if_last({\"a\": A, \"b\": B, \"c\": C, \"scale\": SCALE})\n",
        entry_rev);
  }
  std::string Entry2() const {
    return StrFormat(
        "import_python(\"lib.cinc\", \"*\")\n"
        "if D:\n"
        "    export_if_last({\"mem\": %d})\n"
        "else:\n"
        "    export_if_last({\"mem\": %d})\n",
        arm_on, arm_off);
  }
  std::string Gatekeeper() const {
    std::string restraint =
        gk_employee
            ? R"({"type": "employee"})"
            : R"({"type": "country", "params": {"countries": ["US", "BR"]}})";
    const char* religion = gk_pretty ? "{\n  \"project\": \"ramp\",\n  "
                                       "\"rules\": [{\"restraints\": [%s], "
                                       "\"pass_probability\": %.3f}]\n}\n"
                                     : "{\"project\": \"ramp\", \"rules\": "
                                       "[{\"restraints\": [%s], "
                                       "\"pass_probability\": %.3f}]}";
    return StrFormat(religion, restraint.c_str(), gk_prob);
  }

  InMemorySources Sources() const {
    InMemorySources sources;
    sources.Put("lib.cinc", Lib());
    sources.Put("util.cinc", Util());
    sources.Put("entry1.cconf", Entry1());
    sources.Put("entry2.cconf", Entry2());
    sources.Put("gatekeeper/ramp.json", Gatekeeper());
    return sources;
  }
};

inline UserContext RandomUser(Rng& rng) {
  static const char* kCountries[] = {"US", "CA", "BR", "JP"};
  static const char* kPlatforms[] = {"ios", "android", "www"};
  UserContext user;
  user.user_id = static_cast<int64_t>(rng.NextBounded(1'000'000));
  user.country = kCountries[rng.NextBounded(4)];
  user.platform = kPlatforms[rng.NextBounded(3)];
  user.is_employee = rng.NextBool(0.2);
  user.account_age_days = static_cast<int32_t>(rng.NextBounded(3000));
  user.friend_count = static_cast<int32_t>(rng.NextBounded(900));
  user.app_version = static_cast<int32_t>(rng.NextBounded(100));
  return user;
}

// Applies one commit's edits (one or two) to `tree` and returns the paths
// they touch, in order, with repeats.
inline std::vector<std::string> MutateTree(Rng& rng, SemdiffTree* tree) {
  std::vector<std::string> touched;
  int mutations = 1 + static_cast<int>(rng.NextBounded(2));
  for (int m = 0; m < mutations; ++m) {
    switch (rng.NextBounded(10)) {
      case 0:  // Comment-only edit: semantically nothing.
        tree->lib_rev++;
        touched.push_back("lib.cinc");
        break;
      case 1:  // Value bump.
        tree->a = static_cast<int>(rng.NextBounded(100));
        touched.push_back("lib.cinc");
        break;
      case 2:  // String change.
        tree->c = rng.NextBool(0.5) ? "alpha" : "omega";
        touched.push_back("lib.cinc");
        break;
      case 3:  // Guard flip: control shift in untouched entry2.
        tree->d = !tree->d;
        touched.push_back("lib.cinc");
        break;
      case 4:  // Branch-arm constant edit (touches entry2 itself).
        tree->arm_on = 1024 + static_cast<int>(rng.NextBounded(8)) * 512;
        touched.push_back("entry2.cconf");
        break;
      case 5:  // Specific-import dependency edit.
        tree->scale = 1 + static_cast<int>(rng.NextBounded(50));
        touched.push_back("util.cinc");
        break;
      case 6:  // Entry comment edit.
        tree->entry_rev++;
        touched.push_back("entry1.cconf");
        break;
      case 7:  // Gatekeeper reformat: JSON-equal, so no-op.
        tree->gk_pretty = !tree->gk_pretty;
        touched.push_back("gatekeeper/ramp.json");
        break;
      case 8:  // Sampling probability: value-delta.
        tree->gk_prob = 0.1 * static_cast<double>(1 + rng.NextBounded(9));
        touched.push_back("gatekeeper/ramp.json");
        break;
      case 9:  // Restraint swap: control-shift.
        tree->gk_employee = !tree->gk_employee;
        touched.push_back("gatekeeper/ramp.json");
        break;
    }
  }
  return touched;
}

}  // namespace configerator

#endif  // TESTS_SEMDIFF_COMMITS_H_
