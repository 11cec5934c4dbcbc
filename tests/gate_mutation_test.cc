// Robustness of the analyses that read Gatekeeper projects and invariant
// specs, against hostile bytes. Seeded valid inputs are mutated with the
// shared driver in tests/mutate.h (bit flips; one time in four each, a
// truncation or a number replaced by an edge value such as an int64
// limit):
//
//   * Gatekeeper project JSON goes through CompileProjectFile,
//     ConfigLint::LintGatekeeper, SemanticDiffer on a write of the project,
//     and the invariant checker's gate_implies and gate_context kinds.
//   * Invariant spec files go through InvariantRegistry::AddSpecFile, and
//     whatever parses is checked against a small tree.
//
// Every call must return, under ASan/UBSan too, and each lane must see
// both mutants that still parse and mutants that do not.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/invariant.h"
#include "src/analysis/lint.h"
#include "src/analysis/semdiff.h"
#include "src/gatekeeper/compile.h"
#include "src/lang/compiler.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/gate_gen.h"
#include "tests/mutate.h"

namespace configerator {
namespace {

constexpr int kMutants = 300;

TEST(GateMutation, ProjectMutantsReachEveryAnalysis) {
  int compiled = 0;
  for (uint64_t seed = 1; seed <= kMutants; ++seed) {
    GateGen gen(seed);
    std::string original = gen.Project().Text("a");
    std::string other = gen.Project().Text("b");
    std::string mutant = Mutant(original, seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + mutant);

    if (CompileProjectFile("gatekeeper/a.json", mutant).ok()) {
      ++compiled;
    }
    ConfigLint lint;
    for (const LintDiagnostic& diag :
         lint.LintGatekeeper("gatekeeper/a.json", mutant)) {
      EXPECT_TRUE(diag.rule_id.starts_with("G")) << diag.Format();
    }

    InMemorySources before;
    InMemorySources after;
    before.Put("gatekeeper/a.json", original);
    after.Put("gatekeeper/a.json", mutant);
    SemanticDiffer differ(before.AsReader(), after.AsReader());
    SemanticDiffReport diff = differ.Classify({"gatekeeper/a.json"}, {});
    EXPECT_LE(diff.impacts.size(), 1u);

    after.Put("gatekeeper/b.json", other);
    InvariantRegistry registry;
    registry.AddSpecFile("invariants/gate.json", R"({"invariants": [
      {"name": "a-in-b", "kind": "gate_implies",
       "if_project": "gatekeeper/a.json", "then_project": "gatekeeper/b.json"},
      {"name": "b-in-a", "kind": "gate_implies",
       "if_project": "gatekeeper/b.json", "then_project": "gatekeeper/a.json"},
      {"name": "a-fields", "kind": "gate_context",
       "project": "gatekeeper/a.json",
       "allowed_fields": ["country", "user_id", "string_attrs"]}]})");
    ASSERT_TRUE(registry.diagnostics.empty());
    InvariantChecker checker(after.AsReader());
    EXPECT_EQ(checker.Check(registry).outcomes.size(), 3u);
  }
  // Both lanes of every analysis ran: projects that still compile, and
  // projects the compiler rejects.
  EXPECT_GT(compiled, kMutants / 20);
  EXPECT_LT(compiled, kMutants * 9 / 10);
}

// A seeded invariant spec file declaring every kind over a small tree. Each
// draw from the Rng is a statement of its own, so the specs do not depend on
// the order in which the compiler evaluates operands.
std::string GenSpec(uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](std::initializer_list<const char*> values) {
    return std::string(*(values.begin() + rng.NextBounded(values.size())));
  };
  auto ref = [&]() {
    std::string config = pick({"cfg/a.json", "cfg/b.json"});
    std::string field = pick({"x", "w", "limits.max", "tier"});
    return "{\"config\": \"" + config + "\", \"field\": \"" + field + "\"}";
  };
  auto relation = [&]() { return pick({"<", "<=", "==", "!=", ">=", ">"}); };
  auto project = [&]() {
    return pick({"gatekeeper/a.json", "gatekeeper/b.json"});
  };
  std::vector<std::string> invariants;
  int n = 4 + static_cast<int>(rng.NextBounded(5));
  for (int i = 0; i < n; ++i) {
    std::string head = StrFormat("{\"name\": \"inv%d\", \"severity\": \"%s\", ",
                                 i, pick({"error", "warning"}).c_str());
    switch (rng.NextBounded(6)) {
      case 0: {
        std::string lhs = ref();
        std::string op = relation();
        std::string rhs = ref();
        invariants.push_back(head + "\"kind\": \"ordering\", \"lhs\": " + lhs +
                             ", \"relation\": \"" + op + "\", \"rhs\": " + rhs +
                             "}");
        break;
      }
      case 1: {
        std::string first = ref();
        std::string second = ref();
        std::string op = relation();
        std::string budget = pick({"10", "100", "-1", "2.5"});
        invariants.push_back(head + "\"kind\": \"sum\", \"terms\": [" + first +
                             ", " + second + "], \"relation\": \"" + op +
                             "\", \"budget\": " + budget + "}");
        break;
      }
      case 2: {
        std::string subject = ref();
        std::string extra = pick({"\"cold\"", "7", "null"});
        invariants.push_back(head + "\"kind\": \"membership\", \"subject\": " +
                             subject + ", \"allowed\": [\"hot\", 5, " + extra +
                             "]}");
        break;
      }
      case 3:
        invariants.push_back(head + "\"kind\": \"reference\", \"subject\": {" +
                             "\"config\": \"cfg/a.json\", \"field\": \"" +
                             pick({"fallback", "tier"}) + "\"}}");
        break;
      case 4: {
        std::string if_project = project();
        std::string then_project = project();
        invariants.push_back(head +
                             "\"kind\": \"gate_implies\", \"if_project\": \"" +
                             if_project + "\", \"then_project\": \"" +
                             then_project + "\"}");
        break;
      }
      default: {
        std::string gated = project();
        std::string field =
            pick({"country", "user_id", "string_attrs", "app_version"});
        invariants.push_back(head +
                             "\"kind\": \"gate_context\", \"project\": \"" +
                             gated + "\", \"allowed_fields\": [\"" + field +
                             "\"]}");
        break;
      }
    }
  }
  std::string out = "{\"invariants\": [";
  for (size_t i = 0; i < invariants.size(); ++i) {
    out += (i > 0 ? ",\n  " : "\n  ") + invariants[i];
  }
  return out + "\n]}";
}

TEST(GateMutation, InvariantSpecMutantsParseOrReportI000) {
  InMemorySources tree;
  tree.Put("cfg/a.json",
           R"({"x": 5, "w": 40, "limits": {"max": 9}, "tier": "hot",
               "fallback": "cfg/b.json"})");
  tree.Put("cfg/b.json", R"({"x": 7, "w": 60, "limits": {"max": 3},
                             "tier": "lava"})");
  GateGen gen(7);
  tree.Put("gatekeeper/a.json", gen.Project().Text("a"));
  tree.Put("gatekeeper/b.json", gen.Project().Text("b"));
  InvariantChecker checker(tree.AsReader());

  int clean = 0;
  int rejected = 0;
  for (uint64_t seed = 1; seed <= kMutants; ++seed) {
    std::string spec = GenSpec(seed);
    {
      InvariantRegistry registry;
      registry.AddSpecFile("invariants/spec.json", spec);
      ASSERT_TRUE(registry.diagnostics.empty())
          << "seed " << seed << " generates a malformed spec:\n" << spec;
    }
    std::string mutant = Mutant(spec, seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + mutant);
    InvariantRegistry registry;
    registry.AddSpecFile("invariants/spec.json", mutant);
    for (const LintDiagnostic& diag : registry.diagnostics) {
      EXPECT_EQ(diag.rule_id, "I000") << diag.Format();
    }
    (registry.diagnostics.empty() ? clean : rejected) += 1;
    InvariantReport report = checker.Check(registry);
    EXPECT_EQ(report.outcomes.size(), registry.invariants.size());
  }
  EXPECT_GT(clean, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

}  // namespace
}  // namespace configerator
