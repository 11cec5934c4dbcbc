// Abstract-interpretation coverage: a firing and a non-firing case for every
// T-rule, cross-module inference, branch-dependent schema shapes, symbol
// slices, and the symbol-diff machinery Sandcastle uses to prune re-analysis.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/absint.h"
#include "src/analysis/store.h"
#include "src/lang/compiler.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

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

class AbsintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sources_.Put("job.thrift",
                 "struct Job {\n"
                 "  1: required string name;\n"
                 "  2: optional i32 memory_mb = 256;\n"
                 "  3: optional list<string> tags;\n"
                 "  4: optional i16 priority;\n"
                 "  5: optional double ratio;\n"
                 "  6: optional map<string, i64> limits;\n"
                 "}\n");
    sources_.Put("svc.thrift",
                 "enum Tier { PROD = 0, CANARY = 1 }\n"
                 "struct Svc {\n"
                 "  1: required string name;\n"
                 "  2: optional Tier tier;\n"
                 "  3: optional Job job;\n"
                 "}\n"
                 "struct Job {\n"
                 "  1: required string name;\n"
                 "  2: optional i32 memory_mb = 256;\n"
                 "}\n");
  }

  AbsintResult Analyze(const std::string& source,
                       const std::string& path = "entry.cconf") {
    AbstractInterpreter absint(sources_.AsReader());
    return absint.Analyze(path, source);
  }

  std::vector<LintDiagnostic> Diags(const std::string& source) {
    return Analyze(source).diagnostics;
  }

  InMemorySources sources_;
};

// ---- Baseline: valid configs produce zero diagnostics -----------------------

TEST_F(AbsintTest, CleanConfigHasNoDiagnostics) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"cache\", memory_mb=1024)\n"
      "j.tags = [\"team:feed\", \"tier:prod\"]\n"
      "j.priority = 3\n"
      "j.ratio = 0.5\n"
      "export_if_last(j)\n");
  EXPECT_TRUE(diags.empty()) << diags.size() << " diags, first: "
                             << (diags.empty() ? "" : diags[0].Format());
}

TEST_F(AbsintTest, Figure2WorkflowHasNoDiagnostics) {
  // The compiler_test fixture: function + cross-module import + validator.
  sources_.Put("create_job.cinc",
               "import_thrift(\"job.thrift\")\n"
               "def create_job(name, memory_mb=256):\n"
               "    job = Job(name=name, memory_mb=memory_mb)\n"
               "    job.tags = [\"team:\" + name]\n"
               "    return job\n");
  sources_.Put("job.thrift-cvalidator",
               "def validate_Job(cfg):\n"
               "    assert cfg.memory_mb > 0, \"memory must be positive\"\n");
  auto result = Analyze(
      "import_python(\"create_job.cinc\", \"*\")\n"
      "job = create_job(name=\"cache\", memory_mb=1024)\n"
      "export_if_last(job)\n");
  EXPECT_TRUE(result.analyzed);
  EXPECT_TRUE(result.diagnostics.empty())
      << result.diagnostics[0].Format();
}

TEST_F(AbsintTest, LoopsAndMergeHaveNoDiagnostics) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "tags = []\n"
      "for team in [\"feed\", \"ads\", \"search\"]:\n"
      "    append(tags, \"team:\" + team)\n"
      "base = Job(name=\"base\")\n"
      "j = merge(base, {\"memory_mb\": 512})\n"
      "j.tags = tags\n"
      "export_if_last(j)\n");
  EXPECT_TRUE(diags.empty()) << diags[0].Format();
}

TEST_F(AbsintTest, UnresolvableImportDegradesToSilence) {
  auto result = Analyze(
      "import_python(\"missing.cinc\", \"*\")\n"
      "export_if_last({\"port\": PORT})\n");
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_FALSE(result.slice_sound);
}

// ---- T010 type-mismatch -----------------------------------------------------

TEST_F(AbsintTest, T010FiresOnDefiniteMismatch) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.memory_mb = \"lots\"\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T010"), 1u);
  EXPECT_EQ(FindRule(diags, "T010")->severity, LintSeverity::kError);
}

TEST_F(AbsintTest, T010FiresOnBranchDependentMismatch) {
  // The canary-proof gap: only one branch is wrong, so a concrete compile
  // that takes the other branch passes every runtime defense.
  sources_.Put("flags.cinc", "ENABLE_BONUS = False\nBONUS = \"none\"\n");
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "import_python(\"flags.cinc\", \"*\")\n"
      "j = Job(name=\"x\")\n"
      "if ENABLE_BONUS:\n"
      "    j.memory_mb = BONUS\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T010"), 1u);
  EXPECT_NE(FindRule(diags, "T010")->message.find("memory_mb"),
            std::string::npos);
}

TEST_F(AbsintTest, T010DoesNotFireOnIntIntoDouble) {
  // The concrete checker accepts ints for double fields.
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.ratio = 1\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T010"), 0u);
}

TEST_F(AbsintTest, T010FiresOnBadEnumConstant) {
  auto diags = Diags(
      "import_thrift(\"svc.thrift\")\n"
      "s = Svc(name=\"x\")\n"
      "s.tier = 7\n"
      "export_if_last(s)\n");
  EXPECT_EQ(CountRule(diags, "T010"), 1u);
}

TEST_F(AbsintTest, T010DoesNotFireOnEnumMember) {
  auto diags = Diags(
      "import_thrift(\"svc.thrift\")\n"
      "s = Svc(name=\"x\")\n"
      "s.tier = Tier.CANARY\n"
      "export_if_last(s)\n");
  EXPECT_EQ(CountRule(diags, "T010"), 0u);
}

// ---- T011 missing-or-unknown-field ------------------------------------------

TEST_F(AbsintTest, T011FiresOnUnknownFieldAssignment) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.memroy_mb = 512\n"
      "export_if_last(j)\n");
  ASSERT_GE(CountRule(diags, "T011"), 1u);
  EXPECT_NE(FindRule(diags, "T011")->message.find("memroy_mb"),
            std::string::npos);
}

TEST_F(AbsintTest, T011FiresOnUnknownCtorKwarg) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "export_if_last(Job(name=\"x\", memroy_mb=512))\n");
  EXPECT_GE(CountRule(diags, "T011"), 1u);
}

TEST_F(AbsintTest, T011FiresOnMissingRequiredField) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "export_if_last(Job(memory_mb=512))\n");
  ASSERT_GE(CountRule(diags, "T011"), 1u);
  EXPECT_NE(FindRule(diags, "T011")->message.find("name"), std::string::npos);
}

TEST_F(AbsintTest, T011FiresWhenRequiredFieldOnlySetOnSomeBranches) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "PROD = len(\"x\")\n"  // Not a constant the analyzer folds to a bool.
      "j = {}\n"
      "if PROD:\n"
      "    j = Job(name=\"a\")\n"
      "else:\n"
      "    j = Job(name=\"b\")\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T011"), 0u);  // Both branches assign name.
}

TEST_F(AbsintTest, T011DoesNotFireWhenAllFieldsValid) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "export_if_last(Job(name=\"x\", memory_mb=512))\n");
  EXPECT_EQ(CountRule(diags, "T011"), 0u);
}

// ---- T012 branch-dependent shape --------------------------------------------

TEST_F(AbsintTest, T012FiresWhenOptionalFieldBranchDependent) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "FAST = len(\"xy\")\n"
      "j = Job(name=\"x\")\n"
      "if FAST > 1:\n"
      "    j.priority = 1\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T012"), 1u);
  EXPECT_EQ(FindRule(diags, "T012")->severity, LintSeverity::kWarning);
}

TEST_F(AbsintTest, T012DoesNotFireWhenBothBranchesAssign) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "FAST = len(\"xy\")\n"
      "j = Job(name=\"x\")\n"
      "if FAST > 1:\n"
      "    j.priority = 1\n"
      "else:\n"
      "    j.priority = 2\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T012"), 0u);
}

// ---- T013 out-of-range constant ---------------------------------------------

TEST_F(AbsintTest, T013FiresOnI16Overflow) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.priority = 70000\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T013"), 1u);
  EXPECT_NE(FindRule(diags, "T013")->message.find("70000"),
            std::string::npos);
}

TEST_F(AbsintTest, T013FiresOnValidatorBoundViolation) {
  sources_.Put("job.thrift-cvalidator",
               "def validate_Job(cfg):\n"
               "    assert cfg.memory_mb >= 64\n"
               "    assert cfg.memory_mb <= 4096\n");
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\", memory_mb=16)\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T013"), 1u);
  EXPECT_NE(FindRule(diags, "T013")->message.find("validator"),
            std::string::npos);
}

TEST_F(AbsintTest, T013DoesNotFireInsideValidatorBounds) {
  sources_.Put("job.thrift-cvalidator",
               "def validate_Job(cfg):\n"
               "    assert cfg.memory_mb >= 64\n");
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "export_if_last(Job(name=\"x\", memory_mb=64))\n");
  EXPECT_EQ(CountRule(diags, "T013"), 0u);
}

TEST_F(AbsintTest, T013DoesNotFireOnPartialRangeOverlap) {
  // The value could be in range; only definite violations block.
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "for i in range(0, 100000):\n"
      "    j.priority = i\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T013"), 0u);
}

// ---- T014 non-serializable export -------------------------------------------

TEST_F(AbsintTest, T014FiresOnExportedFunction) {
  auto diags = Diags(
      "def make(name):\n"
      "    return {\"name\": name}\n"
      "export_if_last({\"factory\": make})\n");
  ASSERT_EQ(CountRule(diags, "T014"), 1u);
}

TEST_F(AbsintTest, T014DoesNotFireOnFunctionResult) {
  auto diags = Diags(
      "def make(name):\n"
      "    return {\"name\": name}\n"
      "export_if_last(make(\"x\"))\n");
  EXPECT_EQ(CountRule(diags, "T014"), 0u);
}

// ---- T015 nullable-into-required --------------------------------------------

TEST_F(AbsintTest, T015FiresOnNoneIntoRequired) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.name = None\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T015"), 1u);
}

TEST_F(AbsintTest, T015DoesNotFireOnNoneIntoOptional) {
  // The concrete checker treats a null optional field as absent.
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.tags = None\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T015"), 0u);
}

// ---- T016 list element conflict ---------------------------------------------

TEST_F(AbsintTest, T016FiresOnMixedElementTypes) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.tags = [\"ok\", 42]\n"
      "export_if_last(j)\n");
  ASSERT_EQ(CountRule(diags, "T016"), 1u);
}

TEST_F(AbsintTest, T016DoesNotFireOnHomogeneousList) {
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "j = Job(name=\"x\")\n"
      "j.tags = [\"a\", \"b\"]\n"
      "export_if_last(j)\n");
  EXPECT_EQ(CountRule(diags, "T016"), 0u);
}

// ---- Cross-module inference -------------------------------------------------

TEST_F(AbsintTest, CrossModuleConstantFlowsIntoTypeCheck) {
  // The bad value lives two imports away; only abstract interpretation that
  // follows imports can see the conflict.
  sources_.Put("base.cinc", "DEFAULT_MEMORY = \"512MB\"\n");
  sources_.Put("mid.cinc",
               "import_python(\"base.cinc\", \"*\")\n"
               "MEMORY = DEFAULT_MEMORY\n");
  auto diags = Diags(
      "import_thrift(\"job.thrift\")\n"
      "import_python(\"mid.cinc\", \"MEMORY\")\n"
      "export_if_last(Job(name=\"x\", memory_mb=MEMORY))\n");
  EXPECT_EQ(CountRule(diags, "T010"), 1u);
}

TEST_F(AbsintTest, BranchDependentSchemaShapeAcrossModules) {
  sources_.Put("tiers.cinc", "IS_CANARY = len(\"x\") > 0\n");
  auto result = Analyze(
      "import_thrift(\"svc.thrift\")\n"
      "import_python(\"tiers.cinc\", \"*\")\n"
      "s = Svc(name=\"web\")\n"
      "if IS_CANARY:\n"
      "    s.tier = Tier.CANARY\n"
      "export_if_last(s)\n");
  EXPECT_EQ(CountRule(result.diagnostics, "T012"), 1u);
  EXPECT_EQ(CountRule(result.diagnostics, "T010"), 0u);
}

// ---- Symbol slices ----------------------------------------------------------

TEST_F(AbsintTest, SliceRecordsOnlyUsedSymbols) {
  sources_.Put("ports.cinc", "APP_PORT = 8089\nADMIN_PORT = 8090\n");
  auto result = Analyze(
      "import_python(\"ports.cinc\", \"APP_PORT\")\n"
      "export_if_last({\"port\": APP_PORT})\n");
  ASSERT_TRUE(result.analyzed);
  EXPECT_TRUE(result.slice_sound);
  ASSERT_EQ(result.used_symbols->count("ports.cinc"), 1u);
  const auto& used = result.used_symbols->at("ports.cinc");
  EXPECT_EQ(used.count("APP_PORT"), 1u);
  EXPECT_EQ(used.count("ADMIN_PORT"), 0u);
  ASSERT_EQ(result.exports.size(), 1u);
  EXPECT_EQ(result.exports[0].path, "entry.json");
  const auto& slice = result.exports[0].symbols_by_module;
  ASSERT_EQ(slice.count("ports.cinc"), 1u);
  EXPECT_EQ(slice.at("ports.cinc").count("APP_PORT"), 1u);
}

TEST_F(AbsintTest, SliceIncludesControlDependencies) {
  sources_.Put("flags.cinc", "USE_BIG = len(\"x\") > 0\nBIG = 4096\n");
  auto result = Analyze(
      "import_thrift(\"job.thrift\")\n"
      "import_python(\"flags.cinc\", \"*\")\n"
      "j = Job(name=\"x\")\n"
      "if USE_BIG:\n"
      "    j.memory_mb = BIG\n"
      "export_if_last(j)\n");
  ASSERT_EQ(result.exports.size(), 1u);
  const auto& slice = result.exports[0].symbols_by_module;
  ASSERT_EQ(slice.count("flags.cinc"), 1u);
  EXPECT_EQ(slice.at("flags.cinc").count("USE_BIG"), 1u);  // Control dep.
  EXPECT_EQ(slice.at("flags.cinc").count("BIG"), 1u);      // Data dep.
}

TEST_F(AbsintTest, StarImportRecordsStarMarker) {
  sources_.Put("lib.cinc", "A = 1\n");
  auto result = Analyze(
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last({\"a\": A})\n");
  ASSERT_EQ(result.used_symbols->count("lib.cinc"), 1u);
  EXPECT_EQ(result.used_symbols->at("lib.cinc").count("*"), 1u);
}

TEST_F(AbsintTest, DynamicImportMakesSliceUnsound) {
  sources_.Put("lib.cinc", "A = 1\n");
  auto result = Analyze(
      "name = \"lib\" + \".cinc\"\n"
      "import_python(name, \"*\")\n"
      "export_if_last({\"a\": 1})\n");
  EXPECT_FALSE(result.slice_sound);
}

// ---- Stack budget -----------------------------------------------------------

// 16 functions, each calling the next at the bottom of a 250-term chain: the
// analysis follows all 16 calls, so one walk stacks 16 chains. Under ASan
// that overflowed the stack before the analysis had a stack budget. Past
// the budget it gives up to Any, which fires no rule, and marks the slice
// unsound so nothing prunes or certifies on it.
TEST_F(AbsintTest, DeepCallChainsStayWithinTheStackBudget) {
  std::string source;
  for (int f = 0; f < 16; ++f) {
    source += StrFormat("def f%d(x):\n    return ", f);
    source += f < 15 ? StrFormat("f%d(x)", f + 1) : std::string("x");
    for (int term = 1; term < 250; ++term) {
      source += " + 1";
    }
    source += "\n";
  }
  source += "export_if_last({\"v\": f0(1)})\n";
  AbsintResult result = Analyze(source);
  EXPECT_TRUE(result.analyzed);
  EXPECT_TRUE(result.diagnostics.empty());
  ASSERT_EQ(result.exports.size(), 1u);
}

// ---- The analysis store's memo ----------------------------------------------

// AnalysisStore::Absint replays a stored analysis while every read of its
// run returns the same: it misses when a module, an included schema or a
// validator companion the analysis read changes, appears or vanishes.
TEST(AbsintStoreTest, HitsUntilSomethingItReadChanges) {
  std::map<std::string, std::string> files = {
      {"entry.cconf",
       "import_python(\"lib.cinc\", \"*\")\n"
       "import_thrift(\"schemas/a.thrift\")\n"
       "export_if_last(Job(name=\"x\", mem=MEM, tier=Tier.HOT))\n"},
      {"lib.cinc", "MEM = 64\n"},
      {"schemas/a.thrift",
       "include \"schemas/b.thrift\"\n"
       "struct Job { 1: required string name; 2: optional i32 mem; "
       "3: optional Tier tier; }\n"},
      {"schemas/b.thrift", "enum Tier { HOT = 0 }\n"},
  };
  FileReader reader = [&files](const std::string& path) -> Result<std::string> {
    auto it = files.find(path);
    if (it == files.end()) {
      return NotFoundError("no such source file: " + path);
    }
    return it->second;
  };
  AnalysisStore store;
  auto analyze = [&] {
    return store.Absint(reader, "entry.cconf", files.at("entry.cconf"));
  };
  auto expect = [&](const char* what, size_t hits, size_t misses) {
    SCOPED_TRACE(what);
    EXPECT_EQ(store.absint_hits(), hits);
    EXPECT_EQ(store.absint_misses(), misses);
  };

  auto first = analyze();
  ASSERT_TRUE(first->analyzed);
  EXPECT_EQ(CountRule(first->diagnostics, "T013"), 0u);
  expect("first analysis", 0, 1);
  EXPECT_EQ(analyze(), first);
  files["other.cinc"] = "Z = 1\n";
  EXPECT_EQ(analyze(), first);
  expect("nothing it read changed", 2, 1);

  files["lib.cinc"] = "MEM = 65\n";
  analyze();
  expect("module edit", 2, 2);
  files["lib.cinc"] = "MEM = 64\n";
  EXPECT_EQ(analyze(), first);
  expect("module reverted to a kept version", 3, 2);

  files["schemas/b.thrift"] = "enum Tier { HOT = 0, COLD = 1 }\n";
  analyze();
  expect("included schema edit", 3, 3);

  files["schemas/a.thrift-cvalidator"] =
      "def validate_Job(cfg):\n    assert cfg.mem <= 32\n";
  auto bounded = analyze();
  expect("validator appears", 3, 4);
  EXPECT_EQ(CountRule(bounded->diagnostics, "T013"), 1u);
  files["schemas/a.thrift-cvalidator"] =
      "def validate_Job(cfg):\n    assert cfg.mem <= 128\n";
  EXPECT_EQ(CountRule(analyze()->diagnostics, "T013"), 0u);
  expect("validator edit", 3, 5);
  files.erase("schemas/a.thrift-cvalidator");
  EXPECT_EQ(CountRule(analyze()->diagnostics, "T013"), 0u);
  expect("validator vanishes", 3, 6);

  // Content that is not what the reader serves is analyzed afresh and not
  // kept.
  size_t kept = store.absints_for("entry.cconf");
  store.Absint(reader, "entry.cconf", "export_if_last({})\n");
  expect("content the reader does not serve", 3, 7);
  EXPECT_EQ(store.absints_for("entry.cconf"), kept);
}

// ---- Symbol diffing (ComputeSymbolSurface / ChangedSymbols) -----------------

TEST(SymbolDiffTest, UnchangedModuleHasNoChangedSymbols) {
  const std::string src = "A = 1\nB = A + 1\nC = 3\n";
  auto old_surface = ComputeSymbolSurface(ParseCsl(src, "m.cinc"));
  auto new_surface = ComputeSymbolSurface(ParseCsl(src, "m.cinc"));
  auto changed = ChangedSymbols(old_surface, new_surface);
  ASSERT_TRUE(changed.has_value());
  EXPECT_TRUE(changed->empty());
}

TEST(SymbolDiffTest, ChangeClosesOverIntraModuleDependents) {
  auto old_surface =
      ComputeSymbolSurface(ParseCsl("A = 1\nB = A + 1\nC = 3\n", "m.cinc"));
  auto new_surface =
      ComputeSymbolSurface(ParseCsl("A = 2\nB = A + 1\nC = 3\n", "m.cinc"));
  auto changed = ChangedSymbols(old_surface, new_surface);
  ASSERT_TRUE(changed.has_value());
  EXPECT_EQ(changed->count("A"), 1u);
  EXPECT_EQ(changed->count("B"), 1u);  // B = A + 1 depends on A.
  EXPECT_EQ(changed->count("C"), 0u);
}

TEST(SymbolDiffTest, AddedSymbolSetsStarMarker) {
  auto old_surface = ComputeSymbolSurface(ParseCsl("A = 1\n", "m.cinc"));
  auto new_surface =
      ComputeSymbolSurface(ParseCsl("A = 1\nNEW = 2\n", "m.cinc"));
  auto changed = ChangedSymbols(old_surface, new_surface);
  ASSERT_TRUE(changed.has_value());
  EXPECT_EQ(changed->count("*"), 1u);  // Could shadow a star-importer's name.
}

TEST(SymbolDiffTest, ParseFailureIsNotComparable) {
  auto old_surface = ComputeSymbolSurface(ParseCsl("A = 1\n", "m.cinc"));
  auto new_surface =
      ComputeSymbolSurface(ParseCsl("def broken(:\n", "m.cinc"));
  EXPECT_FALSE(ChangedSymbols(old_surface, new_surface).has_value());
}

TEST(SymbolDiffTest, FunctionBodyChangePropagates) {
  auto old_surface = ComputeSymbolSurface(
      ParseCsl("def f(x):\n    return x + 1\nY = f(1)\n", "m.cinc"));
  auto new_surface = ComputeSymbolSurface(
      ParseCsl("def f(x):\n    return x + 2\nY = f(1)\n", "m.cinc"));
  auto changed = ChangedSymbols(old_surface, new_surface);
  ASSERT_TRUE(changed.has_value());
  EXPECT_EQ(changed->count("f"), 1u);
  EXPECT_EQ(changed->count("Y"), 1u);
}

// ---- Rule table -------------------------------------------------------------

TEST(TypeRuleTableTest, AllRulesDocumented) {
  const auto& rules = AbstractInterpreter::TypeRules();
  ASSERT_EQ(rules.size(), 7u);
  EXPECT_EQ(rules.front().id, "T010");
  EXPECT_EQ(rules.back().id, "T016");
}

}  // namespace
}  // namespace configerator
