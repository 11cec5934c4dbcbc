// Cross-config invariant checker: registry parsing, the four-status
// semantics per invariant kind (proven / violated-with-validated-witness /
// in-jeopardy / unresolved), witness shrinking, and the pipeline wiring —
// Sandcastle blocks every seeded joint inconsistency with a concrete
// counterexample, a clean repo produces zero invariant diagnostics, a
// provably-no-op diff skips re-verification, RiskAdvisor weights
// newly-in-jeopardy invariants, and the canary scope carries the violated
// predicate + witness.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/invariant.h"
#include "src/analysis/witness.h"
#include "src/canary/canary.h"
#include "src/core/stack.h"
#include "src/lang/compiler.h"
#include "src/pipeline/ci.h"
#include "src/pipeline/risk.h"
#include "src/util/ddmin.h"
#include "src/util/strings.h"
#include "src/vcs/repository.h"

namespace configerator {
namespace {

InvariantRegistry ParseRegistry(const std::string& content) {
  InvariantRegistry registry;
  registry.AddSpecFile("invariants/test.json", content);
  return registry;
}

const InvariantOutcome* FindOutcome(const InvariantReport& report,
                                    const std::string& name) {
  for (const InvariantOutcome& outcome : report.outcomes) {
    if (outcome.name == name) {
      return &outcome;
    }
  }
  return nullptr;
}

// ---- Registry parsing -------------------------------------------------------

TEST(InvariantRegistryTest, ParsesEveryKind) {
  InvariantRegistry registry = ParseRegistry(R"({"invariants": [
    {"name": "ord", "kind": "ordering", "severity": "error",
     "lhs": {"config": "a.json", "field": "x"}, "relation": "<=",
     "rhs": {"config": "b.json", "field": "y"}},
    {"name": "sum", "kind": "sum", "relation": "==",
     "terms": [{"config": "a.json", "field": "w"},
               {"config": "b.json", "field": "w"}],
     "budget": 100},
    {"name": "mem", "kind": "membership",
     "subject": {"config": "a.json", "field": "tier"},
     "allowed": ["hot", "cold", 3]},
    {"name": "ref", "kind": "reference",
     "subject": {"config": "a.json", "field": "fallback"}},
    {"name": "imp", "kind": "gate_implies",
     "if_project": "gk/roll.json", "then_project": "gk/elig.json"},
    {"name": "ctx", "kind": "gate_context", "project": "gk/roll.json",
     "allowed_fields": ["country", "user_id"]}
  ]})");
  EXPECT_TRUE(registry.diagnostics.empty());
  ASSERT_EQ(registry.invariants.size(), 6u);
  EXPECT_EQ(registry.invariants[0].kind, InvariantKind::kOrdering);
  EXPECT_EQ(registry.invariants[0].severity, LintSeverity::kError);
  EXPECT_EQ(registry.invariants[1].budget, 100);
  EXPECT_EQ(registry.invariants[2].allowed.size(), 3u);
  EXPECT_EQ(registry.invariants[5].allowed_fields.size(), 2u);
  // Activation sets name every referenced config.
  std::set<std::string> refs = registry.invariants[0].ReferencedConfigs();
  EXPECT_TRUE(refs.count("a.json") && refs.count("b.json"));
  EXPECT_NE(registry.invariants[0].Describe().find("<="), std::string::npos);
}

TEST(InvariantRegistryTest, MalformedEntriesYieldI000AndAreDropped) {
  InvariantRegistry registry = ParseRegistry(R"({"invariants": [
    {"name": "good", "kind": "reference",
     "subject": {"config": "a.json", "field": "f"}},
    {"name": "bad-kind", "kind": "frobnicate"},
    {"name": "bad-ord", "kind": "ordering",
     "lhs": {"config": "a.json"}, "relation": "<="},
    {"kind": "reference", "subject": {"config": "a.json"}}
  ]})");
  // One well-formed invariant survives; three I000 errors, one per bad entry,
  // at line = 1-based array position.
  ASSERT_EQ(registry.invariants.size(), 1u);
  EXPECT_EQ(registry.invariants[0].name, "good");
  ASSERT_EQ(registry.diagnostics.size(), 3u);
  std::set<int> lines;
  for (const LintDiagnostic& diag : registry.diagnostics) {
    EXPECT_EQ(diag.rule_id, "I000");
    EXPECT_EQ(diag.severity, LintSeverity::kError);
    lines.insert(diag.line);
  }
  EXPECT_EQ(lines, (std::set<int>{2, 3, 4}));
}

TEST(InvariantRegistryTest, UnparseableSpecIsOneI000) {
  InvariantRegistry registry = ParseRegistry("{not json");
  EXPECT_TRUE(registry.invariants.empty());
  ASSERT_EQ(registry.diagnostics.size(), 1u);
  EXPECT_EQ(registry.diagnostics[0].rule_id, "I000");
}

// ---- Checker: ordering ------------------------------------------------------

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantReport Check(const std::string& spec) {
    InvariantRegistry registry;
    registry.AddSpecFile("invariants/test.json", spec);
    InvariantChecker checker(sources_.AsReader());
    return checker.Check(registry);
  }

  InMemorySources sources_;
};

TEST_F(InvariantCheckerTest, OrderingProvenAcrossBranchArms) {
  // Both branch arms export a shed below the kill threshold: provable on the
  // slice case-split alone, whatever decides the branch.
  sources_.Put("flags.cinc", "BIG = True\n");
  sources_.Put("shed.cconf",
               "import_python(\"flags.cinc\", \"*\")\n"
               "if BIG:\n"
               "    export_if_last({\"threshold\": 40})\n"
               "else:\n"
               "    export_if_last({\"threshold\": 20})\n");
  sources_.Put("kill.json", "{\"threshold\": 50}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shed-below-kill", "kind": "ordering",
     "lhs": {"config": "shed.json", "field": "threshold"},
     "relation": "<=",
     "rhs": {"config": "kill.json", "field": "threshold"}}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shed-below-kill");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kProven) << outcome->detail;
  EXPECT_GE(outcome->cases_checked, 2u);  // Two slices against one case.
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST_F(InvariantCheckerTest, OrderingViolationCarriesValidatedWitness) {
  sources_.Put("shed.json", "{\"threshold\": 90}");
  sources_.Put("kill.json", "{\"threshold\": 50}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shed-below-kill", "kind": "ordering", "severity": "error",
     "lhs": {"config": "shed.json", "field": "threshold"},
     "relation": "<=",
     "rhs": {"config": "kill.json", "field": "threshold"}}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shed-below-kill");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kViolated);
  EXPECT_TRUE(outcome->witness.validated);
  ASSERT_EQ(outcome->witness.valuation.size(), 2u);
  EXPECT_EQ(outcome->witness.valuation[0].first, "shed.json:threshold");
  EXPECT_EQ(outcome->witness.valuation[0].second, "90");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I001");
  EXPECT_EQ(report.diagnostics[0].severity, LintSeverity::kError);
  EXPECT_EQ(report.diagnostics[0].line, 1);  // First invariant in the file.
  EXPECT_NE(report.diagnostics[0].message.find("witness"), std::string::npos);
}

TEST_F(InvariantCheckerTest, OrderingInJeopardyEmitsNoDiagnostic) {
  // One branch arm would violate, but the branch concretely takes the safe
  // arm at head: no diagnostic — the invariant holds by accident, and that
  // distinction is exactly what RiskAdvisor consumes.
  sources_.Put("flags.cinc", "BIG = True\n");
  sources_.Put("shed.cconf",
               "import_python(\"flags.cinc\", \"*\")\n"
               "if BIG:\n"
               "    export_if_last({\"threshold\": 10})\n"
               "else:\n"
               "    export_if_last({\"threshold\": 80})\n");
  sources_.Put("kill.json", "{\"threshold\": 50}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shed-below-kill", "kind": "ordering",
     "lhs": {"config": "shed.json", "field": "threshold"},
     "relation": "<=",
     "rhs": {"config": "kill.json", "field": "threshold"}}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shed-below-kill");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kInJeopardy) << outcome->detail;
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.in_jeopardy, 1u);
}

// ---- Checker: sum -----------------------------------------------------------

TEST_F(InvariantCheckerTest, SumBudgetViolationShrinksToMinimalSubset) {
  sources_.Put("w0.json", "{\"weight\": 60}");
  sources_.Put("w1.json", "{\"weight\": 50}");
  sources_.Put("w2.json", "{\"weight\": 1}");
  sources_.Put("w3.json", "{\"weight\": 2}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shard-budget", "kind": "sum", "relation": "<=", "budget": 100,
     "terms": [{"config": "w0.json", "field": "weight"},
               {"config": "w1.json", "field": "weight"},
               {"config": "w2.json", "field": "weight"},
               {"config": "w3.json", "field": "weight"}]}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shard-budget");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kViolated);
  EXPECT_TRUE(outcome->witness.validated);
  // ddmin strips w2/w3: 60 + 50 already exceeds the budget alone.
  ASSERT_EQ(outcome->witness.valuation.size(), 2u);
  EXPECT_EQ(outcome->witness.valuation[0].first, "w0.json:weight");
  EXPECT_EQ(outcome->witness.valuation[1].first, "w1.json:weight");
  EXPECT_GT(outcome->witness.shrink_probes, 0);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I002");
}

TEST_F(InvariantCheckerTest, SumProvenFromIntervalsAcrossBranchCases) {
  // Every branch case keeps the joined interval under the budget.
  sources_.Put("flags.cinc", "BIG = False\n");
  sources_.Put("w0.cconf",
               "import_python(\"flags.cinc\", \"*\")\n"
               "if BIG:\n"
               "    export_if_last({\"weight\": 30})\n"
               "else:\n"
               "    export_if_last({\"weight\": 20})\n");
  sources_.Put("w1.json", "{\"weight\": 40}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shard-budget", "kind": "sum", "relation": "<=", "budget": 100,
     "terms": [{"config": "w0.json", "field": "weight"},
               {"config": "w1.json", "field": "weight"}]}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shard-budget");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kProven) << outcome->detail;
}

TEST_F(InvariantCheckerTest, SumEqualityDeficitListsEveryTerm) {
  sources_.Put("w0.json", "{\"weight\": 30}");
  sources_.Put("w1.json", "{\"weight\": 40}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "shard-sum", "kind": "sum", "relation": "==", "budget": 100,
     "terms": [{"config": "w0.json", "field": "weight"},
               {"config": "w1.json", "field": "weight"}]}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "shard-sum");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kViolated);
  // A deficit cannot shrink — dropping terms changes the sum — so the
  // witness lists the full valuation.
  EXPECT_EQ(outcome->witness.valuation.size(), 2u);
  EXPECT_TRUE(outcome->witness.validated);
}

// ---- Checker: membership + reference ----------------------------------------

TEST_F(InvariantCheckerTest, MembershipProvenAndViolated) {
  sources_.Put("a.json", "{\"tier\": \"hot\"}");
  sources_.Put("b.json", "{\"tier\": \"lava\"}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "a-tier", "kind": "membership",
     "subject": {"config": "a.json", "field": "tier"},
     "allowed": ["hot", "warm", "cold"]},
    {"name": "b-tier", "kind": "membership",
     "subject": {"config": "b.json", "field": "tier"},
     "allowed": ["hot", "warm", "cold"]}]})");
  EXPECT_EQ(FindOutcome(report, "a-tier")->status, InvariantStatus::kProven);
  const InvariantOutcome* bad = FindOutcome(report, "b-tier");
  EXPECT_EQ(bad->status, InvariantStatus::kViolated);
  EXPECT_TRUE(bad->witness.validated);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I003");
  EXPECT_EQ(report.diagnostics[0].line, 2);  // Second invariant in the file.
}

TEST_F(InvariantCheckerTest, DanglingReferenceIsViolatedExistingIsProven) {
  sources_.Put("a.json", "{\"fallback\": \"backup.json\"}");
  sources_.Put("b.json", "{\"fallback\": \"gone.json\"}");
  sources_.Put("backup.json", "{\"ok\": true}");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "a-fallback", "kind": "reference",
     "subject": {"config": "a.json", "field": "fallback"}},
    {"name": "b-fallback", "kind": "reference",
     "subject": {"config": "b.json", "field": "fallback"}}]})");
  EXPECT_EQ(FindOutcome(report, "a-fallback")->status,
            InvariantStatus::kProven);
  const InvariantOutcome* bad = FindOutcome(report, "b-fallback");
  EXPECT_EQ(bad->status, InvariantStatus::kViolated);
  EXPECT_TRUE(bad->witness.validated);
  EXPECT_NE(bad->witness.predicate.find("gone.json"), std::string::npos);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I004");
}

TEST_F(InvariantCheckerTest, UnresolvableConfigIsI004Unresolved) {
  InvariantReport report = Check(R"({"invariants": [
    {"name": "ord", "kind": "ordering",
     "lhs": {"config": "missing.json", "field": "x"}, "relation": "<",
     "rhs": {"config": "also_missing.json", "field": "y"}}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "ord");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kUnresolved);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I004");
  EXPECT_EQ(report.diagnostics[0].severity, LintSeverity::kError);
}

// ---- Checker: gatekeeper predicates -----------------------------------------

TEST_F(InvariantCheckerTest, GateImpliesProvenSyntactically) {
  // then-project has a catch-all rule: every context is eligible, so any
  // if-project is subsumed without mining a single context.
  sources_.Put("gk/roll.json",
               R"({"project": "roll", "rules": [
                 {"restraints": [{"type": "country",
                   "params": {"countries": ["US"]}}],
                  "pass_probability": 0.5}]})");
  sources_.Put("gk/elig.json",
               R"({"project": "elig", "rules": [
                 {"restraints": [], "pass_probability": 1.0}]})");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "roll-in-elig", "kind": "gate_implies",
     "if_project": "gk/roll.json", "then_project": "gk/elig.json"}]})");
  EXPECT_EQ(FindOutcome(report, "roll-in-elig")->status,
            InvariantStatus::kProven);
}

TEST_F(InvariantCheckerTest, GateImpliesViolationFindsMinimalContext) {
  // Rollout reaches every US user; eligibility requires employees. A US
  // non-employee is the (shrunk, concrete) counterexample.
  sources_.Put("gk/roll.json",
               R"({"project": "roll", "rules": [
                 {"restraints": [{"type": "country",
                   "params": {"countries": ["US"]}}],
                  "pass_probability": 1.0}]})");
  sources_.Put("gk/elig.json",
               R"({"project": "elig", "rules": [
                 {"restraints": [{"type": "employee"}],
                  "pass_probability": 1.0}]})");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "roll-in-elig", "kind": "gate_implies",
     "if_project": "gk/roll.json", "then_project": "gk/elig.json"}]})");
  const InvariantOutcome* outcome = FindOutcome(report, "roll-in-elig");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->status, InvariantStatus::kViolated) << outcome->detail;
  EXPECT_TRUE(outcome->witness.validated);
  // The ddmin-shrunk context sets only the country; is_employee stays at its
  // default (false), which is what makes the witness minimal.
  ASSERT_EQ(outcome->witness.context.size(), 1u);
  EXPECT_EQ(outcome->witness.context[0].first, "country");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I005");
}

TEST_F(InvariantCheckerTest, GateImpliesHoldsWhenThenProjectCovers) {
  // if: US AND employee; then: employee — a strict superset conjunction is
  // proven syntactically.
  sources_.Put("gk/roll.json",
               R"({"project": "roll", "rules": [
                 {"restraints": [
                    {"type": "country", "params": {"countries": ["US"]}},
                    {"type": "employee"}],
                  "pass_probability": 1.0}]})");
  sources_.Put("gk/elig.json",
               R"({"project": "elig", "rules": [
                 {"restraints": [{"type": "employee"}],
                  "pass_probability": 1.0}]})");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "roll-in-elig", "kind": "gate_implies",
     "if_project": "gk/roll.json", "then_project": "gk/elig.json"}]})");
  EXPECT_EQ(FindOutcome(report, "roll-in-elig")->status,
            InvariantStatus::kProven);
}

TEST_F(InvariantCheckerTest, GateContextFlagsDisallowedFields) {
  sources_.Put("gk/roll.json",
               R"({"project": "roll", "rules": [
                 {"restraints": [
                    {"type": "min_friend_count", "params": {"count": 10}}],
                  "pass_probability": 1.0}]})");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "roll-fields", "kind": "gate_context",
     "project": "gk/roll.json", "allowed_fields": ["country"]},
    {"name": "roll-fields-wide", "kind": "gate_context",
     "project": "gk/roll.json",
     "allowed_fields": ["country", "friend_count"]}]})");
  const InvariantOutcome* narrow = FindOutcome(report, "roll-fields");
  ASSERT_NE(narrow, nullptr);
  EXPECT_EQ(narrow->status, InvariantStatus::kViolated);
  EXPECT_TRUE(narrow->witness.validated);
  ASSERT_EQ(narrow->witness.valuation.size(), 1u);
  EXPECT_NE(narrow->witness.valuation[0].first.find("min_friend_count"),
            std::string::npos);
  EXPECT_NE(narrow->witness.valuation[0].second.find("friend_count"),
            std::string::npos);
  // A differential context demonstrating real dependence on the field.
  EXPECT_FALSE(narrow->witness.context.empty());
  EXPECT_EQ(FindOutcome(report, "roll-fields-wide")->status,
            InvariantStatus::kProven);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule_id, "I006");
}

TEST_F(InvariantCheckerTest, GateContextSeesTheUserIdALaserRestraintReads) {
  // laser() builds its store key from the user id, so a laser-only project
  // consults user_id: allowing only "country" must not prove the invariant.
  sources_.Put("gk/roll.json",
               R"({"project": "roll", "rules": [
                 {"restraints": [
                    {"type": "laser",
                     "params": {"project": "Trend", "threshold": 0.5}}],
                  "pass_probability": 1.0}]})");
  InvariantReport report = Check(R"({"invariants": [
    {"name": "roll-fields", "kind": "gate_context",
     "project": "gk/roll.json", "allowed_fields": ["country"]},
    {"name": "roll-fields-uid", "kind": "gate_context",
     "project": "gk/roll.json", "allowed_fields": ["user_id"]}]})");
  const InvariantOutcome* narrow = FindOutcome(report, "roll-fields");
  ASSERT_NE(narrow, nullptr);
  EXPECT_EQ(narrow->status, InvariantStatus::kViolated);
  ASSERT_EQ(narrow->witness.valuation.size(), 1u);
  EXPECT_NE(narrow->witness.valuation[0].first.find("laser"),
            std::string::npos);
  EXPECT_NE(narrow->witness.valuation[0].second.find("user_id"),
            std::string::npos);
  EXPECT_EQ(FindOutcome(report, "roll-fields-uid")->status,
            InvariantStatus::kProven);
}

// ---- Checker: scope activation ----------------------------------------------

TEST_F(InvariantCheckerTest, ScopeActivatesByReferencedConfig) {
  sources_.Put("shed.json", "{\"threshold\": 90}");
  sources_.Put("kill.json", "{\"threshold\": 50}");
  sources_.Put("other.json", "{\"tier\": \"lava\"}");
  InvariantRegistry registry;
  registry.AddSpecFile("invariants/test.json", R"({"invariants": [
    {"name": "shed-below-kill", "kind": "ordering",
     "lhs": {"config": "shed.json", "field": "threshold"},
     "relation": "<=",
     "rhs": {"config": "kill.json", "field": "threshold"}},
    {"name": "other-tier", "kind": "membership",
     "subject": {"config": "other.json", "field": "tier"},
     "allowed": ["hot"]}]})");
  InvariantChecker checker(sources_.AsReader());

  // Touching kill.json activates only the ordering invariant — but the
  // checker still pulls shed.json (outside the scope) into the analysis.
  InvariantReport scoped = checker.Check(registry, {"kill.json"});
  EXPECT_EQ(scoped.outcomes.size(), 1u);
  EXPECT_EQ(scoped.skipped, 1u);
  EXPECT_EQ(scoped.violated, 1u);

  // Touching the spec file itself activates everything it declares.
  InvariantReport by_spec = checker.Check(registry, {"invariants/test.json"});
  EXPECT_EQ(by_spec.outcomes.size(), 2u);
  EXPECT_EQ(by_spec.violated, 2u);

  // Empty scope = full audit.
  InvariantReport full = checker.Check(registry);
  EXPECT_EQ(full.outcomes.size(), 2u);
}

// ---- Pipeline integration ---------------------------------------------------

class InvariantPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        repo_
            .Commit(
                "init", "seed",
                {{"svc/shed.json", "{\"threshold\": 40}"},
                 {"svc/kill.json", "{\"threshold\": 50}"},
                 {"svc/w0.json", "{\"weight\": 30}"},
                 {"svc/w1.json", "{\"weight\": 40}"},
                 {"svc/route.json",
                  "{\"tier\": \"hot\", \"fallback\": \"svc/kill.json\"}"},
                 {"gatekeeper/roll.json",
                  R"({"project": "roll", "rules": [
                      {"restraints": [{"type": "employee"}],
                       "pass_probability": 1.0}]})"},
                 {"gatekeeper/elig.json",
                  R"({"project": "elig", "rules": [
                      {"restraints": [{"type": "employee"}],
                       "pass_probability": 1.0}]})"},
                 {"invariants/core.json", CoreSpec()}})
            .ok());
  }

  static std::string CoreSpec() {
    return R"({"invariants": [
      {"name": "shed-below-kill", "kind": "ordering", "severity": "error",
       "lhs": {"config": "svc/shed.json", "field": "threshold"},
       "relation": "<=",
       "rhs": {"config": "svc/kill.json", "field": "threshold"}},
      {"name": "shard-budget", "kind": "sum", "relation": "<=", "budget": 100,
       "terms": [{"config": "svc/w0.json", "field": "weight"},
                 {"config": "svc/w1.json", "field": "weight"}]},
      {"name": "route-tier", "kind": "membership",
       "subject": {"config": "svc/route.json", "field": "tier"},
       "allowed": ["hot", "warm", "cold"]},
      {"name": "route-fallback", "kind": "reference",
       "subject": {"config": "svc/route.json", "field": "fallback"}},
      {"name": "roll-in-elig", "kind": "gate_implies",
       "if_project": "gatekeeper/roll.json",
       "then_project": "gatekeeper/elig.json"},
      {"name": "roll-fields", "kind": "gate_context",
       "project": "gatekeeper/roll.json",
       "allowed_fields": ["is_employee", "country", "user_id"]}
    ]})";
  }

  CiReport Run(const std::vector<FileWrite>& writes) {
    Sandcastle ci(&repo_, &deps_);
    ProposedDiff diff = MakeProposedDiff(repo_, "alice", "edit", writes);
    return ci.RunTests(diff);
  }

  Repository repo_;
  DependencyService deps_;
};

TEST_F(InvariantPipelineTest, CleanCommitsPassWithZeroInvariantDiagnostics) {
  // Valid edits that respect every invariant: no I-series finding.
  CiReport report = Run({{"svc/shed.json", "{\"threshold\": 45}"}});
  EXPECT_TRUE(report.passed) << report.Summary();
  for (const LintDiagnostic& diag : report.lint_findings) {
    EXPECT_NE(diag.rule_id[0], 'I') << diag.Format();
  }
  EXPECT_GE(report.invariants_proven, 1u);
  EXPECT_NE(report.Summary().find("invariants:"), std::string::npos);
}

TEST_F(InvariantPipelineTest, SeededInconsistenciesAllBlockAtSandcastle) {
  // >= 20 distinct joint inconsistencies across the four families. Every one
  // must fail CI with an I-series error carrying a concrete witness.
  struct Seed {
    std::vector<FileWrite> writes;
    std::string rule;
  };
  std::vector<Seed> seeds;
  // Ordering: shed raised above kill, kill lowered below shed, both moved.
  for (int i = 0; i < 6; ++i) {
    seeds.push_back({{{"svc/shed.json",
                       StrFormat("{\"threshold\": %d}", 51 + i * 7)}},
                     "I001"});
  }
  for (int i = 0; i < 2; ++i) {
    seeds.push_back({{{"svc/kill.json",
                       StrFormat("{\"threshold\": %d}", 39 - i * 5)}},
                     "I001"});
  }
  seeds.push_back({{{"svc/shed.json", "{\"threshold\": 70}"},
                    {"svc/kill.json", "{\"threshold\": 60}"}},
                   "I001"});
  // Budget: single- and both-sided weight inflation.
  for (int i = 0; i < 4; ++i) {
    seeds.push_back({{{"svc/w0.json",
                       StrFormat("{\"weight\": %d}", 61 + i * 10)}},
                     "I002"});
  }
  seeds.push_back({{{"svc/w0.json", "{\"weight\": 55}"},
                    {"svc/w1.json", "{\"weight\": 55}"}},
                   "I002"});
  // Membership: invalid tiers.
  for (const char* tier : {"lava", "tepid", "HOT"}) {
    seeds.push_back({{{"svc/route.json",
                       StrFormat("{\"tier\": \"%s\", \"fallback\": "
                                 "\"svc/kill.json\"}",
                                 tier)}},
                     "I003"});
  }
  // Dangling reference: fallback retargeted to missing configs, and the
  // referenced config deleted outright.
  for (const char* target : {"svc/nope.json", "svc/gone.json"}) {
    seeds.push_back({{{"svc/route.json",
                       StrFormat("{\"tier\": \"hot\", \"fallback\": "
                                 "\"%s\"}",
                                 target)}},
                     "I004"});
  }
  seeds.push_back({{{"svc/kill.json", std::nullopt}}, "I004"});
  // Gatekeeper: rollout widened beyond eligibility, and a restraint
  // consulting a context field outside the allowed set.
  seeds.push_back({{{"gatekeeper/roll.json",
                     R"({"project": "roll", "rules": [
                         {"restraints": [], "pass_probability": 1.0}]})"}},
                   "I005"});
  seeds.push_back({{{"gatekeeper/roll.json",
                     R"({"project": "roll", "rules": [
                         {"restraints": [{"type": "country",
                           "params": {"countries": ["BR"]}}],
                          "pass_probability": 1.0}]})"}},
                   "I005"});
  seeds.push_back({{{"gatekeeper/roll.json",
                     R"({"project": "roll", "rules": [
                         {"restraints": [{"type": "employee"},
                           {"type": "min_friend_count",
                            "params": {"count": 5}}],
                          "pass_probability": 1.0}]})"}},
                   "I006"});

  ASSERT_GE(seeds.size(), 20u);
  for (size_t i = 0; i < seeds.size(); ++i) {
    CiReport report = Run(seeds[i].writes);
    EXPECT_FALSE(report.passed) << "seed " << i << ": " << report.Summary();
    bool found = false;
    for (const LintDiagnostic& diag : report.lint_findings) {
      if (diag.rule_id == seeds[i].rule) {
        found = true;
        // The diagnostic embeds the concrete counterexample — except the
        // unresolved flavor of I004 (deleting a referenced config leaves
        // nothing to evaluate a witness against).
        if (diag.rule_id != "I004") {
          EXPECT_NE(diag.message.find("witness"), std::string::npos)
              << diag.Format();
        }
      }
    }
    EXPECT_TRUE(found) << "seed " << i << " expected " << seeds[i].rule << ": "
                       << report.Summary();
    // And each violation's witness object was concretely validated.
    for (const InvariantOutcome& outcome : report.invariant_outcomes) {
      if (outcome.status == InvariantStatus::kViolated) {
        EXPECT_TRUE(outcome.witness.validated) << outcome.predicate;
      }
    }
  }
}

TEST_F(InvariantPipelineTest, MalformedSpecFileIsBlockedByRawValidator) {
  CiReport report =
      Run({{"invariants/new.json", "{\"invariants\": [{\"kind\": \"nope\"}]}"}});
  EXPECT_FALSE(report.passed) << report.Summary();
}

TEST_F(InvariantPipelineTest, EditedSpecIsReverifiedAndCanBlock) {
  // Tightening an invariant so head violates it blocks the spec edit itself.
  CiReport report = Run({{"invariants/core.json",
                          R"({"invariants": [
      {"name": "shed-way-below-kill", "kind": "ordering", "severity": "error",
       "lhs": {"config": "svc/shed.json", "field": "threshold"},
       "relation": "<",
       "rhs": {"config": "svc/shed.json", "field": "threshold"}}]})"}});
  EXPECT_FALSE(report.passed) << report.Summary();
}

TEST_F(InvariantPipelineTest, RiskAdvisorWeighsInvariantsInJeopardy) {
  RiskAdvisor advisor;
  ASSERT_TRUE(advisor.IndexHistory(repo_).ok());
  ProposedDiff diff = MakeProposedDiff(repo_, "alice", "edit",
                                       {{"svc/shed.json",
                                         "{\"threshold\": 45}"}});
  InvariantOutcome jeopardy;
  jeopardy.name = "shed-below-kill";
  jeopardy.status = InvariantStatus::kInJeopardy;
  jeopardy.detail = "case 2 undecided";
  std::vector<InvariantOutcome> outcomes{jeopardy};

  double base = advisor.Assess(diff).score;
  RiskAssessment weighted =
      advisor.Assess(diff, nullptr, nullptr, nullptr, &outcomes);
  EXPECT_GT(weighted.score, base);
  bool mentioned = false;
  for (const std::string& reason : weighted.reasons) {
    if (reason.find("shed-below-kill") != std::string::npos &&
        reason.find("jeopardy") != std::string::npos) {
      mentioned = true;
    }
  }
  EXPECT_TRUE(mentioned);
}

TEST_F(InvariantPipelineTest, CanaryScopeCarriesInvariantNotes) {
  PendingChange change;
  InvariantOutcome violated;
  violated.name = "shed-below-kill";
  violated.status = InvariantStatus::kViolated;
  violated.predicate = "ordering: shed <= kill";
  violated.witness.predicate = "90 <= 50 is false";
  violated.witness.validated = true;
  InvariantOutcome jeopardy;
  jeopardy.name = "shard-budget";
  jeopardy.status = InvariantStatus::kInJeopardy;
  jeopardy.predicate = "sum(w0, w1) <= 100";
  jeopardy.detail = "abstract sum unbounded";
  change.ci_report.invariant_outcomes = {violated, jeopardy};

  CanaryScope scope = change.Scope();
  ASSERT_EQ(scope.invariant_notes.size(), 2u);
  EXPECT_NE(scope.invariant_notes["ordering: shed <= kill"].find(
                "90 <= 50 is false"),
            std::string::npos);
  EXPECT_NE(scope.invariant_notes["sum(w0, w1) <= 100"].find("jeopardy"),
            std::string::npos);
  EXPECT_NE(scope.Describe().find("invariant ["), std::string::npos);
}

// ---- ddmin ------------------------------------------------------------------

TEST(DdminTest, FindsMinimalSubset) {
  // Reproduces iff the kept set contains both 2 and 5.
  int probes = 0;
  std::vector<size_t> kept = DdminSubset(
      8,
      [](const std::vector<size_t>& kept_indices) {
        bool has2 = false, has5 = false;
        for (size_t i : kept_indices) {
          has2 |= i == 2;
          has5 |= i == 5;
        }
        return has2 && has5;
      },
      /*max_probes=*/256, &probes);
  EXPECT_EQ(kept, (std::vector<size_t>{2, 5}));
  EXPECT_GT(probes, 0);
}

TEST(DdminTest, SingletonAndEmptyInputs) {
  int probes = 0;
  EXPECT_EQ(DdminSubset(1, [](const std::vector<size_t>&) { return true; }, 16,
                        &probes)
                .size(),
            1u);
  EXPECT_TRUE(
      DdminSubset(0, [](const std::vector<size_t>&) { return true; }, 16)
          .empty());
}

}  // namespace
}  // namespace configerator
