// ConfigLint rule coverage: one firing and one non-firing case per rule.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/absint.h"
#include "src/analysis/lint.h"
#include "src/lang/builtins.h"
#include "src/lang/compiler.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

// Counts diagnostics for `rule_id` in `diags`.
size_t CountRule(const std::vector<LintDiagnostic>& diags,
                 std::string_view rule_id) {
  return std::count_if(diags.begin(), diags.end(),
                       [rule_id](const LintDiagnostic& d) {
                         return d.rule_id == rule_id;
                       });
}

const LintDiagnostic* FindRule(const std::vector<LintDiagnostic>& diags,
                               std::string_view rule_id) {
  for (const LintDiagnostic& d : diags) {
    if (d.rule_id == rule_id) {
      return &d;
    }
  }
  return nullptr;
}

class LanguageRulesTest : public ::testing::Test {
 protected:
  std::vector<LintDiagnostic> Lint(const std::string& source,
                                   const std::string& path = "entry.cconf") {
    ConfigLint lint(sources_.AsReader());
    return lint.LintSource(path, source);
  }

  InMemorySources sources_;
};

// ---- L000 parse-error -------------------------------------------------------

TEST_F(LanguageRulesTest, ParseErrorFires) {
  auto diags = Lint("def broken(:\n");
  ASSERT_EQ(CountRule(diags, "L000"), 1u);
  EXPECT_EQ(FindRule(diags, "L000")->severity, LintSeverity::kError);
}

TEST_F(LanguageRulesTest, ParseErrorDoesNotFireOnValidSource) {
  EXPECT_EQ(CountRule(Lint("export_if_last({\"ok\": True})\n"), "L000"), 0u);
}

// ---- L001 undefined-name ----------------------------------------------------

TEST_F(LanguageRulesTest, UndefinedNameFires) {
  auto diags = Lint("export_if_last({\"port\": PORT})\n");
  ASSERT_EQ(CountRule(diags, "L001"), 1u);
  const LintDiagnostic* diag = FindRule(diags, "L001");
  EXPECT_EQ(diag->severity, LintSeverity::kError);
  EXPECT_EQ(diag->line, 1);
  EXPECT_NE(diag->message.find("PORT"), std::string::npos);
}

TEST_F(LanguageRulesTest, UndefinedNameDoesNotFireOnDefinedName) {
  EXPECT_EQ(CountRule(Lint("PORT = 80\nexport_if_last({\"port\": PORT})\n"),
                      "L001"),
            0u);
}

TEST_F(LanguageRulesTest, UndefinedNameResolvesThroughStarImport) {
  sources_.Put("lib/ports.cinc", "PORT = 80\nADMIN_PORT = 8080\n");
  auto diags = Lint(
      "import_python(\"lib/ports.cinc\", \"*\")\n"
      "export_if_last({\"port\": PORT})\n");
  EXPECT_EQ(CountRule(diags, "L001"), 0u);
}

TEST_F(LanguageRulesTest, UndefinedNameResolvesTransitively) {
  sources_.Put("base.cinc", "ROOT = 1\n");
  sources_.Put("mid.cinc", "import_python(\"base.cinc\", \"*\")\nMID = 2\n");
  auto diags = Lint(
      "import_python(\"mid.cinc\", \"*\")\n"
      "export_if_last({\"a\": ROOT, \"b\": MID})\n");
  EXPECT_EQ(CountRule(diags, "L001"), 0u);
}

TEST_F(LanguageRulesTest, UndefinedNameSuppressedWhenImportUnresolvable) {
  // The import target does not exist. L010 reports that once, at the
  // import; lint cannot know what the module would have defined, so L001
  // stays silent about the names it might have bound.
  auto diags = Lint(
      "import_python(\"missing.cinc\", \"*\")\n"
      "export_if_last({\"port\": PORT})\n");
  EXPECT_EQ(CountRule(diags, "L001"), 0u);
  EXPECT_EQ(CountRule(diags, "L010"), 1u);
}

TEST_F(LanguageRulesTest, SingleSymbolImportOfMissingSymbolFires) {
  sources_.Put("lib.cinc", "PORT = 80\n");
  auto diags = Lint(
      "import_python(\"lib.cinc\", \"HOST\")\n"
      "export_if_last({\"h\": HOST})\n");
  EXPECT_EQ(CountRule(diags, "L001"), 1u);  // HOST is not in lib.cinc.
}

TEST_F(LanguageRulesTest, SchemaConstructorResolvesThroughThriftImport) {
  sources_.Put("job.thrift",
               "struct Job { 1: required string name; }\n"
               "enum Tier { HOT = 0, COLD = 1 }\n");
  auto diags = Lint(
      "import_thrift(\"job.thrift\")\n"
      "export_if_last({\"j\": Job(name=\"x\"), \"t\": Tier.HOT})\n");
  EXPECT_EQ(CountRule(diags, "L001"), 0u);
}

// ---- L002 use-before-def ----------------------------------------------------

TEST_F(LanguageRulesTest, UseBeforeDefFires) {
  auto diags = Lint("export(\"v\", VAL)\nVAL = 1\n");
  ASSERT_EQ(CountRule(diags, "L002"), 1u);
  EXPECT_EQ(FindRule(diags, "L002")->severity, LintSeverity::kError);
  EXPECT_NE(FindRule(diags, "L002")->message.find("line 2"),
            std::string::npos);
}

TEST_F(LanguageRulesTest, UseBeforeDefDoesNotFireInOrder) {
  EXPECT_EQ(CountRule(Lint("VAL = 1\nexport(\"v\", VAL)\n"), "L002"), 0u);
}

TEST_F(LanguageRulesTest, UseBeforeDefDoesNotFireForForwardRefInFunction) {
  // The function body runs after the module finished evaluating LIMIT.
  auto diags = Lint(
      "def scaled(x):\n"
      "    return x * LIMIT\n"
      "LIMIT = 4\n"
      "export_if_last({\"v\": scaled(2)})\n");
  EXPECT_EQ(CountRule(diags, "L002"), 0u);
  EXPECT_EQ(CountRule(diags, "L001"), 0u);
}

// ---- L003 unused-binding ----------------------------------------------------

TEST_F(LanguageRulesTest, UnusedBindingFires) {
  auto diags = Lint("leftover = 42\nexport_if_last({\"ok\": True})\n");
  ASSERT_EQ(CountRule(diags, "L003"), 1u);
  EXPECT_EQ(FindRule(diags, "L003")->severity, LintSeverity::kWarning);
}

TEST_F(LanguageRulesTest, UnusedBindingDoesNotFireWhenRead) {
  EXPECT_EQ(
      CountRule(Lint("port = 80\nexport_if_last({\"port\": port})\n"), "L003"),
      0u);
}

TEST_F(LanguageRulesTest, UnusedBindingSkipsIncModuleGlobals) {
  // A .cinc's globals are its export surface — other modules import them.
  EXPECT_EQ(CountRule(Lint("PORT = 80\n", "lib/ports.cinc"), "L003"), 0u);
}

TEST_F(LanguageRulesTest, UnusedBindingSkipsUnderscoreNames) {
  EXPECT_EQ(
      CountRule(Lint("_scratch = 1\nexport_if_last({\"ok\": True})\n"), "L003"),
      0u);
}

TEST_F(LanguageRulesTest, UnusedLocalInFunctionFires) {
  auto diags = Lint(
      "def f():\n"
      "    dead = 99\n"
      "    return 1\n"
      "export_if_last({\"v\": f()})\n");
  ASSERT_EQ(CountRule(diags, "L003"), 1u);
  EXPECT_EQ(FindRule(diags, "L003")->line, 2);
}

// ---- L004 unused-import -----------------------------------------------------

TEST_F(LanguageRulesTest, UnusedImportFires) {
  sources_.Put("lib.cinc", "PORT = 80\n");
  auto diags = Lint(
      "import_python(\"lib.cinc\", \"PORT\")\n"
      "export_if_last({\"ok\": True})\n");
  ASSERT_EQ(CountRule(diags, "L004"), 1u);
  EXPECT_EQ(FindRule(diags, "L004")->severity, LintSeverity::kWarning);
}

TEST_F(LanguageRulesTest, UnusedImportDoesNotFireWhenUsed) {
  sources_.Put("lib.cinc", "PORT = 80\n");
  auto diags = Lint(
      "import_python(\"lib.cinc\", \"PORT\")\n"
      "export_if_last({\"port\": PORT})\n");
  EXPECT_EQ(CountRule(diags, "L004"), 0u);
}

TEST_F(LanguageRulesTest, UnusedStarImportFires) {
  sources_.Put("lib.cinc", "PORT = 80\nHOST = \"h\"\n");
  auto diags = Lint(
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last({\"ok\": True})\n");
  EXPECT_EQ(CountRule(diags, "L004"), 1u);
}

TEST_F(LanguageRulesTest, ImportResolutionDoesNotDependOnEarlierImports) {
  // d0 -> d1 -> ... -> d8: from the linted file, d8 is nine imports deep
  // through d0 (past the resolution bound) but eight through d1.
  for (int k = 0; k <= 8; ++k) {
    sources_.Put(StrFormat("d%d.cinc", k),
                 k < 8 ? StrFormat("import_python(\"d%d.cinc\", \"*\")\n"
                                   "D%d = %d\n",
                                   k + 1, k, k)
                       : std::string("D8 = 8\n"));
  }
  const std::string unused_d1 =
      "import_python(\"d1.cinc\", \"D1\")\n"
      "export_if_last({\"ok\": True})\n";
  EXPECT_EQ(CountRule(Lint(unused_d1), "L004"), 1u);
  // An earlier import that reaches d1 deeper does not change how the
  // import of d1 resolves.
  EXPECT_EQ(
      CountRule(Lint("import_python(\"d0.cinc\", \"*\")\n" + unused_d1),
                "L004"),
      1u);
}

// ---- L005 duplicate-dict-key ------------------------------------------------

TEST_F(LanguageRulesTest, DuplicateDictKeyFires) {
  auto diags = Lint("export_if_last({\"a\": 1, \"b\": 2, \"a\": 3})\n");
  ASSERT_EQ(CountRule(diags, "L005"), 1u);
  const LintDiagnostic* diag = FindRule(diags, "L005");
  EXPECT_EQ(diag->severity, LintSeverity::kError);
  EXPECT_NE(diag->message.find("\"a\""), std::string::npos);
}

TEST_F(LanguageRulesTest, DuplicateDictKeyDoesNotFireOnDistinctKeys) {
  EXPECT_EQ(CountRule(Lint("export_if_last({\"a\": 1, \"b\": 2})\n"), "L005"),
            0u);
}

TEST_F(LanguageRulesTest, DuplicateDictKeyDoesNotFireOnComputedKeys) {
  // Computed keys cannot be compared statically.
  auto diags = Lint(
      "k = \"a\"\n"
      "export_if_last({k: 1, \"a\": 2})\n");
  EXPECT_EQ(CountRule(diags, "L005"), 0u);
}

// ---- L006 shadowed-builtin --------------------------------------------------

TEST_F(LanguageRulesTest, ShadowedBuiltinFires) {
  auto diags = Lint("len = 3\nexport_if_last({\"len\": len})\n");
  ASSERT_EQ(CountRule(diags, "L006"), 1u);
  EXPECT_EQ(FindRule(diags, "L006")->severity, LintSeverity::kWarning);
}

TEST_F(LanguageRulesTest, ShadowedBuiltinDoesNotFireOnFreshName) {
  EXPECT_EQ(
      CountRule(Lint("size = 3\nexport_if_last({\"s\": size})\n"), "L006"),
      0u);
}

TEST_F(LanguageRulesTest, ShadowedBuiltinFiresOnParameter) {
  auto diags = Lint(
      "def f(str):\n"
      "    return str\n"
      "export_if_last({\"v\": f(\"x\")})\n");
  EXPECT_EQ(CountRule(diags, "L006"), 1u);
}

TEST_F(LanguageRulesTest, EveryRegisteredBuiltinIsKnownToLintAndAbsint) {
  // Lint and the abstract interpreter read the names from the environment
  // the interpreter registers them in, so no builtin can be missing there.
  const auto& builtins = SharedBuiltinsEnvironment()->vars();
  ASSERT_FALSE(builtins.empty());
  AbstractInterpreter absint;
  for (const auto& [name, value] : builtins) {
    EXPECT_EQ(CountRule(Lint("x = " + name + "\n", "lib.cinc"), "L001"), 0u)
        << name;
    EXPECT_EQ(CountRule(Lint(name + " = 1\n", "lib.cinc"), "L006"), 1u)
        << name;
    AbsintResult result = absint.Analyze("lib.cinc", "x = " + name + "\n");
    ASSERT_EQ(result.symbol_summaries.count("x"), 1u) << name;
    const SymbolSummary& x = result.symbol_summaries.at("x");
    EXPECT_FALSE(x.any) << name;
    EXPECT_EQ(x.kinds, kAbsFunction) << name;
  }
}

// ---- L007 unreachable-code --------------------------------------------------

TEST_F(LanguageRulesTest, UnreachableCodeFires) {
  auto diags = Lint(
      "def f():\n"
      "    return 1\n"
      "    x = 2\n"
      "export_if_last({\"v\": f()})\n");
  ASSERT_EQ(CountRule(diags, "L007"), 1u);
  const LintDiagnostic* diag = FindRule(diags, "L007");
  EXPECT_EQ(diag->severity, LintSeverity::kWarning);
  EXPECT_EQ(diag->line, 3);
}

TEST_F(LanguageRulesTest, UnreachableCodeDoesNotFireAfterConditionalReturn) {
  auto diags = Lint(
      "def f(x):\n"
      "    if x:\n"
      "        return 1\n"
      "    return 2\n"
      "export_if_last({\"v\": f(0)})\n");
  EXPECT_EQ(CountRule(diags, "L007"), 0u);
}

TEST_F(LanguageRulesTest, UnreachableCodeFiresAfterBreak) {
  auto diags = Lint(
      "total = 0\n"
      "for x in range(3):\n"
      "    break\n"
      "    total = total + x\n"
      "export_if_last({\"t\": total})\n");
  EXPECT_EQ(CountRule(diags, "L007"), 1u);
}

// ---- L008 call-arity --------------------------------------------------------

TEST_F(LanguageRulesTest, CallArityFiresOnTooManyPositionals) {
  auto diags = Lint(
      "def f(a, b=2):\n"
      "    return a + b\n"
      "export_if_last({\"v\": f(1, 2, 3)})\n");
  ASSERT_EQ(CountRule(diags, "L008"), 1u);
  EXPECT_EQ(FindRule(diags, "L008")->severity, LintSeverity::kError);
}

TEST_F(LanguageRulesTest, CallArityFiresOnUnknownKeyword) {
  auto diags = Lint(
      "def f(a):\n"
      "    return a\n"
      "export_if_last({\"v\": f(a=1, c=2)})\n");
  EXPECT_EQ(CountRule(diags, "L008"), 1u);
}

TEST_F(LanguageRulesTest, CallArityFiresOnMissingRequiredArgument) {
  auto diags = Lint(
      "def f(a, b):\n"
      "    return a + b\n"
      "export_if_last({\"v\": f(1)})\n");
  ASSERT_EQ(CountRule(diags, "L008"), 1u);
  EXPECT_NE(FindRule(diags, "L008")->message.find("'b'"), std::string::npos);
}

TEST_F(LanguageRulesTest, CallArityFiresOnDoubleBoundParameter) {
  auto diags = Lint(
      "def f(a, b=1):\n"
      "    return a + b\n"
      "export_if_last({\"v\": f(1, a=2)})\n");
  EXPECT_EQ(CountRule(diags, "L008"), 1u);
}

TEST_F(LanguageRulesTest, CallArityDoesNotFireOnValidCalls) {
  auto diags = Lint(
      "def f(a, b=2):\n"
      "    return a + b\n"
      "export_if_last({\"u\": f(1), \"v\": f(1, 5), \"w\": f(a=1, b=2)})\n");
  EXPECT_EQ(CountRule(diags, "L008"), 0u);
}

TEST_F(LanguageRulesTest, CallArityChecksImportedFunctions) {
  sources_.Put("lib.cinc",
               "def create_job(name, memory_mb=256):\n"
               "    return {\"name\": name, \"memory_mb\": memory_mb}\n");
  auto diags = Lint(
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last(create_job(name=\"x\", memry_mb=512))\n");
  ASSERT_EQ(CountRule(diags, "L008"), 1u);  // Typo'd keyword.
  EXPECT_NE(FindRule(diags, "L008")->message.find("memry_mb"),
            std::string::npos);
}

TEST_F(LanguageRulesTest, CallArityDoesNotFireAfterReassignment) {
  // The def's signature no longer describes what the name holds.
  auto diags = Lint(
      "def f(a):\n"
      "    return a\n"
      "f = 7\n"
      "export_if_last({\"v\": f})\n");
  EXPECT_EQ(CountRule(diags, "L008"), 0u);
}

// ---- L009 constant-condition ------------------------------------------------

TEST_F(LanguageRulesTest, ConstantTernaryFires) {
  auto diags = Lint("x = 1 if True else 2\nexport_if_last({\"x\": x})\n");
  ASSERT_EQ(CountRule(diags, "L009"), 1u);
  EXPECT_EQ(FindRule(diags, "L009")->severity, LintSeverity::kWarning);
}

TEST_F(LanguageRulesTest, ConstantIfFires) {
  auto diags = Lint(
      "x = 0\n"
      "if False:\n"
      "    x = 1\n"
      "export_if_last({\"x\": x})\n");
  EXPECT_EQ(CountRule(diags, "L009"), 1u);
}

TEST_F(LanguageRulesTest, ConstantConditionDoesNotFireOnDynamicCondition) {
  auto diags = Lint(
      "flag = len(\"ab\") > 1\n"
      "x = 1 if flag else 2\n"
      "export_if_last({\"x\": x})\n");
  EXPECT_EQ(CountRule(diags, "L009"), 0u);
}

// ---- L010 missing-import ----------------------------------------------------

TEST_F(LanguageRulesTest, MissingImportFiresOnAbsentModuleOrSchema) {
  sources_.Put("schemas/a.thrift",
               "include \"schemas/gone.thrift\"\nstruct A { 1: i32 x; }\n");
  auto diags = Lint(
      "import_python(\"lib/missing.cinc\", \"X\")\n"
      "import_thrift(\"schemas/missing.thrift\")\n"
      "import_thrift(\"schemas/a.thrift\")\n"
      "export_if_last({\"x\": X})\n",
      "lib/m.cinc");
  ASSERT_EQ(CountRule(diags, "L010"), 3u);
  std::vector<std::string> found;
  for (const LintDiagnostic& d : diags) {
    if (d.rule_id == "L010") {
      EXPECT_EQ(d.severity, LintSeverity::kError);
      found.push_back(StrFormat("%d: ", d.line) + d.message);
    }
  }
  EXPECT_EQ(found,
            (std::vector<std::string>{
                "1: import of 'lib/missing.cinc', which does not exist",
                "2: import of 'schemas/missing.thrift', which does not exist",
                "3: import of 'schemas/a.thrift', which includes "
                "'schemas/gone.thrift', which does not exist"}));
}

TEST_F(LanguageRulesTest, MissingImportDoesNotFireOnOtherUnresolvableImports) {
  sources_.Put("lib/cycle.cinc", "import_python(\"lib/cycle.cinc\", \"*\")\n");
  sources_.Put("lib/broken.cinc", "def :\n");
  sources_.Put("schemas/self.thrift", "include \"schemas/self.thrift\"\n");
  sources_.Put("lib/ok.cinc", "X = 1\n");
  auto diags = Lint(
      "p = \"lib/\" + \"gone.cinc\"\n"
      "import_python(p, \"*\")\n"
      "import_python(\"lib/cycle.cinc\", \"*\")\n"
      "import_python(\"lib/broken.cinc\", \"*\")\n"
      "import_thrift(\"schemas/self.thrift\")\n"
      "import_python(\"lib/ok.cinc\", \"X\")\n"
      "export_if_last({\"x\": X})\n");
  EXPECT_EQ(CountRule(diags, "L010"), 0u);
}

// ---- Gating rules -----------------------------------------------------------

class GatingRulesTest : public ::testing::Test {
 protected:
  std::vector<LintDiagnostic> Lint(const std::string& json) {
    ConfigLint lint;
    return lint.LintGatekeeper("gatekeeper/P.json", json);
  }
};

// ---- G001 contradictory-restraints -----------------------------------------

TEST_F(GatingRulesTest, ContradictionFires) {
  auto diags = Lint(R"({"project": "P", "rules": [{
      "pass_probability": 1.0,
      "restraints": [
        {"type": "country", "params": {"countries": ["US"]}},
        {"type": "country", "negate": true, "params": {"countries": ["US"]}}
      ]}]})");
  ASSERT_EQ(CountRule(diags, "G001"), 1u);
  EXPECT_EQ(FindRule(diags, "G001")->severity, LintSeverity::kError);
}

TEST_F(GatingRulesTest, ContradictionDoesNotFireOnDifferentParams) {
  auto diags = Lint(R"({"project": "P", "rules": [{
      "pass_probability": 1.0,
      "restraints": [
        {"type": "country", "params": {"countries": ["US"]}},
        {"type": "country", "negate": true, "params": {"countries": ["CA"]}}
      ]}]})");
  EXPECT_EQ(CountRule(diags, "G001"), 0u);
}

// ---- G002 subsumed-rule -----------------------------------------------------

TEST_F(GatingRulesTest, SubsumedRuleFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [{"type": "always"}]},
      {"pass_probability": 1.0, "restraints": [{"type": "employee"}]}]})");
  ASSERT_EQ(CountRule(diags, "G002"), 1u);
  EXPECT_EQ(FindRule(diags, "G002")->severity, LintSeverity::kWarning);
}

TEST_F(GatingRulesTest, SubsumedRuleDoesNotFireBehindPartialRollout) {
  // 10% sampling: later rules still see the remaining users... no — a
  // non-matching user falls through only if the conjunction fails, but an
  // always-true conjunction at p<1 still consumes every user (the die is
  // cast once). Semantically later rules ARE dead, but flagging staged
  // rollouts (1% → 10% → 100%) would warn on the paper's own workflow, so
  // the rule keys on p == 1.0 only.
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 0.1, "restraints": [{"type": "always"}]},
      {"pass_probability": 1.0, "restraints": [{"type": "employee"}]}]})");
  EXPECT_EQ(CountRule(diags, "G002"), 0u);
}

// ---- G003 dead-rule ---------------------------------------------------------

TEST_F(GatingRulesTest, ZeroProbabilityRuleFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 0.0, "restraints": [{"type": "employee"}]}]})");
  ASSERT_EQ(CountRule(diags, "G003"), 1u);
  EXPECT_EQ(FindRule(diags, "G003")->severity, LintSeverity::kWarning);
}

TEST_F(GatingRulesTest, AlwaysFalseRestraintFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "always", "params": {"value": false}},
        {"type": "employee"}]}]})");
  EXPECT_EQ(CountRule(diags, "G003"), 1u);
}

TEST_F(GatingRulesTest, NegatedFullRangeBucketFires) {
  // NOT hash_range[0,1) passes nobody.
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "hash_range", "negate": true,
         "params": {"salt": "s", "lo": 0.0, "hi": 1.0}}]}]})");
  EXPECT_EQ(CountRule(diags, "G003"), 1u);
}

TEST_F(GatingRulesTest, DeadRuleDoesNotFireOnLiveRule) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 0.5, "restraints": [{"type": "employee"}]}]})");
  EXPECT_EQ(CountRule(diags, "G003"), 0u);
}

// ---- G004 unknown-restraint-type -------------------------------------------

TEST_F(GatingRulesTest, UnknownRestraintTypeFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [{"type": "no_such_thing"}]}]})");
  ASSERT_EQ(CountRule(diags, "G004"), 1u);
  EXPECT_EQ(FindRule(diags, "G004")->severity, LintSeverity::kError);
}

TEST_F(GatingRulesTest, UnknownRestraintTypeDoesNotFireOnBuiltins) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "employee"}, {"type": "laser",
         "params": {"project": "x", "threshold": 0.5}}]}]})");
  EXPECT_EQ(CountRule(diags, "G004"), 0u);
}

// ---- G005 duplicate-restraint ----------------------------------------------

TEST_F(GatingRulesTest, DuplicateRestraintFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "country", "params": {"countries": ["US"]}},
        {"type": "country", "params": {"countries": ["US"]}}]}]})");
  ASSERT_EQ(CountRule(diags, "G005"), 1u);
  EXPECT_EQ(FindRule(diags, "G005")->severity, LintSeverity::kWarning);
}

TEST_F(GatingRulesTest, DuplicateRestraintDoesNotFireAcrossRules) {
  // The same restraint in two different rules is normal staged-rollout shape.
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 0.1, "restraints": [
        {"type": "country", "params": {"countries": ["US"]}}]},
      {"pass_probability": 1.0, "restraints": [
        {"type": "country", "params": {"countries": ["US"]}},
        {"type": "employee"}]}]})");
  EXPECT_EQ(CountRule(diags, "G005"), 0u);
}

// ---- G006 vacuous-bucket ----------------------------------------------------

TEST_F(GatingRulesTest, VacuousIdModBucketFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "id_mod", "params": {"mod": 100, "lo": 0, "hi": 100}}]}]})");
  ASSERT_EQ(CountRule(diags, "G006"), 1u);
  EXPECT_EQ(FindRule(diags, "G006")->severity, LintSeverity::kWarning);
}

TEST_F(GatingRulesTest, VacuousHashRangeBucketFires) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "hash_range",
         "params": {"salt": "s", "lo": 0.0, "hi": 1.0}}]}]})");
  EXPECT_EQ(CountRule(diags, "G006"), 1u);
}

TEST_F(GatingRulesTest, VacuousBucketDoesNotFireOnRealSlice) {
  auto diags = Lint(R"({"project": "P", "rules": [
      {"pass_probability": 1.0, "restraints": [
        {"type": "id_mod", "params": {"mod": 100, "lo": 0, "hi": 10}},
        {"type": "hash_range",
         "params": {"salt": "s", "lo": 0.0, "hi": 0.5}}]}]})");
  EXPECT_EQ(CountRule(diags, "G006"), 0u);
}

// ---- Driver behavior --------------------------------------------------------

TEST(ConfigLintTest, LintFileDispatchesByPathConvention) {
  ConfigLint lint;
  // CSL source gets language rules.
  EXPECT_EQ(lint.LintFile("a.cconf", "export_if_last({\"p\": MISSING})\n")
                .size(),
            1u);
  // Gatekeeper JSON gets gating rules.
  auto gk = lint.LintFile("gatekeeper/P.json",
                          R"({"project": "P", "rules": [
                              {"pass_probability": 0.0,
                               "restraints": [{"type": "employee"}]}]})");
  EXPECT_EQ(gk.size(), 1u);
  // Other files are out of scope.
  EXPECT_TRUE(lint.LintFile("traffic/weights.json", "{\"r\": 1}").empty());
  EXPECT_TRUE(lint.LintFile("README.md", "# hi").empty());
}

TEST(ConfigLintTest, MalformedGatekeeperJsonYieldsNoLintFindings) {
  // Broken JSON is the raw validator's finding, not lint's.
  ConfigLint lint;
  EXPECT_TRUE(lint.LintGatekeeper("gatekeeper/P.json", "{nope").empty());
}

TEST(ConfigLintTest, DiagnosticFormatIsStable) {
  LintDiagnostic diag;
  diag.rule_id = "L001";
  diag.severity = LintSeverity::kError;
  diag.file = "a.cconf";
  diag.line = 3;
  diag.message = "'X' is not defined";
  diag.suggestion = "define it";
  EXPECT_EQ(diag.Format(),
            "a.cconf:3: error [L001] 'X' is not defined (fix: define it)");
}

TEST(ConfigLintTest, RuleTableCoversBothFamiliesDistinctly) {
  const auto& rules = ConfigLint::Rules();
  EXPECT_GE(rules.size(), 16u);
  std::set<std::string_view> ids;
  size_t language = 0;
  size_t gating = 0;
  for (const LintRuleInfo& rule : rules) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    if (rule.id[0] == 'L') {
      ++language;
    } else if (rule.id[0] == 'G') {
      ++gating;
    }
  }
  EXPECT_GE(language, 10u);
  EXPECT_GE(gating, 6u);
}

TEST(ConfigLintTest, CleanRealisticConfigIsQuiet) {
  // A config in the shape of the docs' example should produce zero findings.
  InMemorySources sources;
  sources.Put("schemas/job.thrift",
              "struct Job { 1: required string name; "
              "2: optional i32 memory_mb = 256; }\n");
  sources.Put("lib/defaults.cinc",
              "DEFAULT_MEMORY_MB = 256\n"
              "def job_name(tier):\n"
              "    return \"job-\" + tier\n");
  ConfigLint lint(sources.AsReader());
  auto diags = lint.LintSource(
      "jobs.cconf",
      "import_thrift(\"schemas/job.thrift\")\n"
      "import_python(\"lib/defaults.cinc\", \"*\")\n"
      "jobs = {}\n"
      "for tier in [\"hot\", \"warm\"]:\n"
      "    jobs[tier] = Job(name=job_name(tier),\n"
      "                     memory_mb=DEFAULT_MEMORY_MB * 2)\n"
      "assert len(jobs) == 2, \"expected two tiers\"\n"
      "export_if_last(jobs)\n");
  std::string all;
  for (const LintDiagnostic& d : diags) {
    all += d.Format() + "\n";
  }
  EXPECT_TRUE(diags.empty()) << all;
}

}  // namespace
}  // namespace configerator
