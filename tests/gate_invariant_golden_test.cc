// Golden digests of the Gatekeeper invariant kinds, gate_implies and
// gate_context. A seeded generator builds 320 pairs of projects, each with
// 1-4 rules of 1-3 restraints drawn from every builtin restraint type with
// random params, random negation and some pass_probability-0 rules. Some
// second projects are weakened or strengthened copies of the first, so
// syntactic proofs and violations both occur. Each pair is checked as
// `gate_implies` (first implies second), and each project as
// `gate_context` against a random subset of the declared field
// vocabulary. Every outcome's status, cases_checked, detail and rendered
// witness is folded into a SHA-256.
//
// Two digests, split by whether an outcome involves an attribute restraint
// (string_attr_equals, has_attr, numeric_attr_gt, numeric_attr_lt):
//
//   kNoAttributeDigest  outcomes over projects with no attribute restraint.
//   kAttributeDigest    the rest.
//
// Both were first recorded when the checker mined context values by
// decoding restraint params from the project JSON itself: a6607bf2... and
// 27491867.... The checker now asks each compiled restraint for its
// boundary probes. kNoAttributeDigest passed that change unchanged.
// kAttributeDigest was re-recorded once. Witnesses used to name attribute
// fields "sattr:<attr>"/"nattr:<attr>" and now name them as the restraint
// registry does ("string_attrs.<attr>", "numeric_attrs.<attr>"), and
// gate_context no longer tries to demonstrate a violation by flipping an
// attribute field the invariant allows. Of the 604 outcomes under that
// digest, 202 changed: 84 only in the rendered field name, 94 only in
// cases_checked (the allowed attribute fields are no longer tried) and 24
// in the differential context itself, which had flipped an allowed field.
//
// A refactor of the checker or of the restraints must pass both unchanged;
// a mismatch means a verdict or witness moved, which is a finding to
// explain, not a constant to update. If a change is meant to alter them,
// run
//   build/tests/gate_invariant_golden_test
// and replace the constant the failure names, giving the reason in
// CHANGES.md.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/invariant.h"
#include "src/gatekeeper/restraint.h"
#include "src/lang/compiler.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/strings.h"
#include "tests/gate_gen.h"

namespace configerator {
namespace {

constexpr int kPairs = 320;
constexpr uint64_t kSeed = 20261020;
constexpr char kNoAttributeDigest[] =
    "a6607bf229796e667b7f9f6c81a436383c3f9ea286d133ef4c3c469ef5cd350a";
constexpr char kAttributeDigest[] =
    "8ad65c937893a091bd3f2e0a7cea76e63105a5dc5039f6301ca0ed4a3977715e";

// The context fields the builtin restraints declare, sorted.
std::vector<std::string> FieldVocabulary() {
  const RestraintRegistry& registry = RestraintRegistry::Builtin();
  std::set<std::string> fields;
  for (const std::string& type : registry.TypeNames()) {
    for (const std::string& field : registry.ContextFields(type)) {
      fields.insert(field);
    }
  }
  return {fields.begin(), fields.end()};
}

void Fold(const InvariantOutcome& outcome, Sha256* digest, size_t* count) {
  std::string record = outcome.name + "|" +
                       std::string(InvariantStatusName(outcome.status)) + "|" +
                       std::to_string(outcome.cases_checked) + "|" +
                       outcome.detail + "|" + outcome.witness.Describe();
  // Length-prefixed, so record boundaries cannot shift between outcomes.
  digest->Update(StrFormat("%zu:", record.size()));
  digest->Update(record);
  ++*count;
}

TEST(GateInvariantGolden, OutcomesMatchGoldenDigests) {
  const std::vector<std::string> vocabulary = FieldVocabulary();
  ASSERT_EQ(vocabulary.size(), 12u);
  Sha256 plain;
  Sha256 attributes;
  size_t plain_count = 0;
  size_t attribute_count = 0;
  std::map<InvariantStatus, size_t> by_status;
  for (int pair = 0; pair < kPairs; ++pair) {
    GateGen gen(kSeed + static_cast<uint64_t>(pair));
    GenProject a = gen.Project();
    GenProject b;
    switch (gen.Bounded(4)) {
      case 0:
        b = gen.Weaken(a);
        break;
      case 1:
        b = gen.Strengthen(a);
        break;
      default:
        b = gen.Project();
        break;
    }
    auto allowed = [&]() {
      std::string out = "[";
      bool first = true;
      for (const std::string& field : vocabulary) {
        if (gen.Bool(0.5)) {
          out += (first ? "\"" : ", \"") + field + "\"";
          first = false;
        }
      }
      return out + "]";
    };
    std::string allowed_a = allowed();
    std::string allowed_b = allowed();
    InMemorySources sources;
    sources.Put("gk/a.json", a.Text("a"));
    sources.Put("gk/b.json", b.Text("b"));
    InvariantRegistry registry;
    registry.AddSpecFile("invariants/gate.json", R"({"invariants": [
      {"name": "imp", "kind": "gate_implies",
       "if_project": "gk/a.json", "then_project": "gk/b.json"},
      {"name": "ctx-a", "kind": "gate_context", "project": "gk/a.json",
       "allowed_fields": )" + allowed_a + R"(},
      {"name": "ctx-b", "kind": "gate_context", "project": "gk/b.json",
       "allowed_fields": )" + allowed_b + R"(}]})");
    ASSERT_TRUE(registry.diagnostics.empty()) << "pair " << pair;
    InvariantChecker checker(sources.AsReader());
    InvariantReport report = checker.Check(registry);
    ASSERT_EQ(report.outcomes.size(), 3u) << "pair " << pair;
    for (const InvariantOutcome& outcome : report.outcomes) {
      ++by_status[outcome.status];
      bool attribute = outcome.name == "imp"
                           ? a.HasAttribute() || b.HasAttribute()
                           : (outcome.name == "ctx-a" ? a : b).HasAttribute();
      if (attribute) {
        Fold(outcome, &attributes, &attribute_count);
      } else {
        Fold(outcome, &plain, &plain_count);
      }
    }
  }
  // The generator reaches every status and both digests.
  EXPECT_GT(by_status[InvariantStatus::kProven], 50u);
  EXPECT_GT(by_status[InvariantStatus::kViolated], 50u);
  EXPECT_GT(by_status[InvariantStatus::kInJeopardy], 20u);
  EXPECT_GT(by_status[InvariantStatus::kUnresolved], 0u);
  EXPECT_GT(plain_count, 200u);
  EXPECT_GT(attribute_count, 200u);
  EXPECT_EQ(plain.Finish().ToHex(), kNoAttributeDigest)
      << plain_count << " outcomes over projects with no attribute restraint";
  EXPECT_EQ(attributes.Finish().ToHex(), kAttributeDigest)
      << attribute_count << " outcomes over projects with an attribute "
      << "restraint";
}

}  // namespace
}  // namespace configerator
