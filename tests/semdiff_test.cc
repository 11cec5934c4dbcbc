// Semantic diffing: the 4-way classification (no-op / value-delta /
// control-shift / type-change), which writes the no-op certificate covers,
// the closure gating rules G007, G008 and G010, diff-hunk -> symbol
// attribution, byte-stable determinism, a 20-commit scripted sequence (part
// of the semdiff lane), and the acceptance scenario: a latent control shift
// in an UNTOUCHED dependent is classified (not no-op) and the landing is
// blocked by a G-rule error.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/analysis/semdiff.h"
#include "src/core/stack.h"
#include "src/lang/compiler.h"
#include "src/pipeline/ci.h"
#include "src/vcs/diff.h"

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

// ---- Semantic diff: 4-way classification ------------------------------------

class SemdiffTest : public ::testing::Test {
 protected:
  SemanticDiffReport Classify(const std::vector<std::string>& touched,
                              const std::vector<std::string>& dependents) {
    SemanticDiffer differ(old_.AsReader(), new_.AsReader());
    return differ.Classify(touched, dependents);
  }

  InMemorySources old_;
  InMemorySources new_;
};

TEST_F(SemdiffTest, CommentOnlyChangeIsProvablyNoOp) {
  old_.Put("lib.cinc", "PORT = 8080\nRETRIES = 3\n");
  new_.Put("lib.cinc", "# service port\nPORT = 8080\nRETRIES = 3\n");
  old_.Put("entry.cconf",
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"port\": PORT, \"retries\": RETRIES})\n");
  new_.Put("entry.cconf",
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"port\": PORT, \"retries\": RETRIES})\n");

  SemanticDiffReport report = Classify({"lib.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  EXPECT_TRUE(report.provably_noop) << report.Summary();
  ASSERT_GT(report.impacts.size(), 0u);
  for (const SymbolImpact& impact : report.impacts) {
    EXPECT_EQ(impact.kind, ImpactKind::kNoOp) << impact.Describe();
  }
}

TEST_F(SemdiffTest, ConstantEditIsValueDeltaWithBounds) {
  old_.Put("lib.cinc", "PORT = 8080\n");
  new_.Put("lib.cinc", "PORT = 9090\n");
  old_.Put("entry.cconf",
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"port\": PORT})\n");
  new_.Put("entry.cconf",
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"port\": PORT})\n");

  SemanticDiffReport report = Classify({"lib.cinc"}, {"entry.cconf"});
  EXPECT_FALSE(report.provably_noop);
  const SymbolImpact* port = report.Find("lib.cinc", "PORT");
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->kind, ImpactKind::kValueDelta) << port->Describe();
  EXPECT_NE(port->old_value.find("8080"), std::string::npos);
  EXPECT_NE(port->new_value.find("9090"), std::string::npos);
  // The untouched entry's export moves with it.
  const SymbolImpact* exported = report.Find("entry.cconf", "entry.json");
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->kind, ImpactKind::kValueDelta) << exported->Describe();
}

TEST_F(SemdiffTest, KindChangeIsTypeChange) {
  old_.Put("lib.cinc", "LIMIT = 100\n");
  new_.Put("lib.cinc", "LIMIT = \"unbounded\"\n");
  SemanticDiffReport report = Classify({"lib.cinc"}, {});
  const SymbolImpact* limit = report.Find("lib.cinc", "LIMIT");
  ASSERT_NE(limit, nullptr);
  EXPECT_EQ(limit->kind, ImpactKind::kTypeChange) << limit->Describe();
}

TEST_F(SemdiffTest, AddedAndRemovedSymbolsAreTypeChanges) {
  old_.Put("lib.cinc", "KEEP = 1\nGONE = 2\n");
  new_.Put("lib.cinc", "KEEP = 1\nFRESH = 3\n");
  SemanticDiffReport report = Classify({"lib.cinc"}, {});
  const SymbolImpact* gone = report.Find("lib.cinc", "GONE");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->kind, ImpactKind::kTypeChange);
  EXPECT_NE(gone->detail.find("removed"), std::string::npos);
  const SymbolImpact* fresh = report.Find("lib.cinc", "FRESH");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->kind, ImpactKind::kTypeChange);
  EXPECT_NE(fresh->detail.find("added"), std::string::npos);
  const SymbolImpact* keep = report.Find("lib.cinc", "KEEP");
  ASSERT_NE(keep, nullptr);
  EXPECT_EQ(keep->kind, ImpactKind::kNoOp) << keep->Describe();
}

TEST_F(SemdiffTest, GuardFlipInUntouchedDependentIsControlShift) {
  // The commit only touches flags.cinc, but the semantic consequence lives
  // in the UNTOUCHED entry: which branch it exports flips. Both branch arms
  // are byte-identical across versions — only the classification of the
  // guard edge distinguishes this from a no-op.
  old_.Put("flags.cinc", "USE_BIG = True\n");
  new_.Put("flags.cinc", "USE_BIG = False\n");
  const char* entry =
      "import_python(\"flags.cinc\", \"*\")\n"
      "if USE_BIG:\n"
      "    export_if_last({\"mem\": 4096})\n"
      "else:\n"
      "    export_if_last({\"mem\": 512})\n";
  old_.Put("entry.cconf", entry);
  new_.Put("entry.cconf", entry);

  SemanticDiffReport report = Classify({"flags.cinc"}, {"entry.cconf"});
  EXPECT_FALSE(report.provably_noop);
  const SymbolImpact* exported = report.Find("entry.cconf", "entry.json");
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->kind, ImpactKind::kControlShift) << exported->Describe();
  EXPECT_NE(exported->detail.find("USE_BIG"), std::string::npos);
}

TEST_F(SemdiffTest, GatekeeperRestraintSwapIsControlShift) {
  old_.Put("gatekeeper/ramp.json",
           "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
           "[{\"type\": \"country\", \"params\": {\"countries\": [\"US\"]}}], "
           "\"pass_probability\": 1.0}]}");
  new_.Put("gatekeeper/ramp.json",
           "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
           "[{\"type\": \"employee\"}], \"pass_probability\": 1.0}]}");
  SemanticDiffReport report = Classify({"gatekeeper/ramp.json"}, {});
  const SymbolImpact* ramp = report.Find("gatekeeper/ramp.json", "ramp");
  ASSERT_NE(ramp, nullptr);
  EXPECT_EQ(ramp->kind, ImpactKind::kControlShift) << ramp->Describe();
}

TEST_F(SemdiffTest, GatekeeperProbabilityEditIsValueDelta) {
  old_.Put("gatekeeper/ramp.json",
           "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
           "[{\"type\": \"employee\"}], \"pass_probability\": 0.5}]}");
  new_.Put("gatekeeper/ramp.json",
           "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
           "[{\"type\": \"employee\"}], \"pass_probability\": 0.9}]}");
  SemanticDiffReport report = Classify({"gatekeeper/ramp.json"}, {});
  const SymbolImpact* ramp = report.Find("gatekeeper/ramp.json", "ramp");
  ASSERT_NE(ramp, nullptr);
  EXPECT_EQ(ramp->kind, ImpactKind::kValueDelta) << ramp->Describe();
}

TEST_F(SemdiffTest, GatekeeperReformatIsNoOp) {
  old_.Put("gatekeeper/ramp.json",
           "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
           "[{\"type\": \"employee\"}], \"pass_probability\": 0.5}]}");
  new_.Put("gatekeeper/ramp.json",
           "{\n  \"project\": \"ramp\",\n  \"rules\": [{\"restraints\": "
           "[{\"type\": \"employee\"}],\n    \"pass_probability\": 0.5}]\n}");
  SemanticDiffReport report = Classify({"gatekeeper/ramp.json"}, {});
  const SymbolImpact* ramp = report.Find("gatekeeper/ramp.json", "ramp");
  ASSERT_NE(ramp, nullptr);
  EXPECT_EQ(ramp->kind, ImpactKind::kNoOp) << ramp->Describe();
  EXPECT_TRUE(report.provably_noop);
}

TEST_F(SemdiffTest, SchemaEditWithholdsNoOpCertificate) {
  // Thrift default values are not modeled abstractly: a file reading a
  // touched .thrift must NOT be certified no-op even if its own symbols
  // look byte-identical.
  const char* thrift_old =
      "struct Job {\n  1: required string name;\n"
      "  2: optional i32 memory_mb = 256;\n}\n";
  const char* thrift_new =
      "struct Job {\n  1: required string name;\n"
      "  2: optional i32 memory_mb = 512;\n}\n";
  const char* entry =
      "import_thrift(\"job.thrift\")\n"
      "export_if_last(Job(name=\"cache\"))\n";
  old_.Put("job.thrift", thrift_old);
  new_.Put("job.thrift", thrift_new);
  old_.Put("entry.cconf", entry);
  new_.Put("entry.cconf", entry);

  SemanticDiffReport report = Classify({"job.thrift"}, {"entry.cconf"});
  EXPECT_FALSE(report.provably_noop);
  const SymbolImpact* exported = report.Find("entry.cconf", "entry.json");
  ASSERT_NE(exported, nullptr);
  EXPECT_NE(exported->kind, ImpactKind::kNoOp) << exported->Describe();
}

TEST_F(SemdiffTest, NewlyDecidedBranchFiresG008) {
  old_.Put("lib.cinc", "THRESHOLD = 10\n");
  new_.Put("lib.cinc", "THRESHOLD = 1\n");
  const char* entry =
      "import_python(\"lib.cinc\", \"*\")\n"
      "mode = \"small\"\n"
      "if THRESHOLD > 5:\n"
      "    mode = \"big\"\n"
      "export_if_last({\"mode\": mode})\n";
  old_.Put("entry.cconf", entry);
  new_.Put("entry.cconf", entry);

  SemanticDiffReport report = Classify({"lib.cinc"}, {"entry.cconf"});
  // Old side decided the branch true; new side decides it false — a NEWLY
  // decided direction, so G008 reports the transition.
  const LintDiagnostic* g008 = FindRule(report.findings, "G008");
  ASSERT_NE(g008, nullptr);
  EXPECT_EQ(g008->file, "entry.cconf");
  EXPECT_EQ(g008->line, 3);
  EXPECT_EQ(g008->severity, LintSeverity::kWarning);

  // An IDENTICAL constant guard on both sides stays quiet: pre-existing
  // decided branches are not this commit's problem.
  SemanticDiffer same(new_.AsReader(), new_.AsReader());
  SemanticDiffReport unchanged = same.Classify({"lib.cinc"}, {"entry.cconf"});
  EXPECT_EQ(FindRule(unchanged.findings, "G008"), nullptr);
}

TEST_F(SemdiffTest, UnparseableVersionIsUnsound) {
  old_.Put("lib.cinc", "A = 1\n");
  new_.Put("lib.cinc", "def broken(:\n");
  SemanticDiffReport report = Classify({"lib.cinc"}, {});
  EXPECT_FALSE(report.sound);
  EXPECT_FALSE(report.provably_noop);
  for (const SymbolImpact& impact : report.impacts) {
    EXPECT_NE(impact.kind, ImpactKind::kNoOp) << impact.Describe();
  }
}

// ---- Closure gating rules: G007 and G010 ------------------------------------

TEST_F(SemdiffTest, G010FlagsShadowedImport) {
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("a.cinc", "TIMEOUT = 5\n");
    side->Put("b.cinc", "TIMEOUT = 30\nRETRIES = 3\n");
  }
  old_.Put("entry.cconf",
           "import_python(\"a.cinc\", \"TIMEOUT\")\n"
           "export_if_last({\"t\": TIMEOUT})\n");
  new_.Put("entry.cconf",
           "import_python(\"a.cinc\", \"TIMEOUT\")\n"
           "import_python(\"b.cinc\", \"*\")\n"
           "export_if_last({\"t\": TIMEOUT, \"r\": RETRIES})\n");
  SemanticDiffReport report = Classify({"entry.cconf"}, {});
  const LintDiagnostic* g010 = FindRule(report.findings, "G010");
  ASSERT_NE(g010, nullptr) << report.Summary();
  EXPECT_EQ(g010->severity, LintSeverity::kError);
  EXPECT_EQ(g010->file, "entry.cconf");
  EXPECT_EQ(g010->line, 2);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
}

TEST_F(SemdiffTest, G010FlagsShadowingInAnIntermediateModule) {
  // The shadowing import sits in mid.cinc, which neither the commit nor the
  // dependent list names: only the walk over the new side's closure (the
  // entry's run reads mid.cinc) reaches it.
  const char* mid =
      "import_python(\"a.cinc\", \"TIMEOUT\")\n"
      "import_python(\"b.cinc\", \"*\")\n"
      "MID_TIMEOUT = TIMEOUT\n";
  const char* entry =
      "import_python(\"mid.cinc\", \"MID_TIMEOUT\")\n"
      "export_if_last({\"t\": MID_TIMEOUT})\n";
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("a.cinc", "TIMEOUT = 5\n");
    side->Put("mid.cinc", mid);
    side->Put("entry.cconf", entry);
  }
  old_.Put("b.cinc", "RETRIES = 3\n");
  new_.Put("b.cinc", "TIMEOUT = 30\nRETRIES = 3\n");
  SemanticDiffReport report = Classify({"b.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  const LintDiagnostic* g010 = FindRule(report.findings, "G010");
  ASSERT_NE(g010, nullptr) << report.Summary();
  EXPECT_EQ(g010->file, "mid.cinc");
  EXPECT_EQ(g010->line, 2);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
}

TEST_F(SemdiffTest, G010FlagsShadowingReExportedThroughAStarImport) {
  // entry.cconf takes TIMEOUT from a.cinc, then star-imports b.cinc, which
  // star-imports c.cinc. The commit adds TIMEOUT to c.cinc: b.cinc now
  // re-exports it, and the entry's TIMEOUT silently moves from 5 to 30.
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("a.cinc", "TIMEOUT = 5\n");
    side->Put("b.cinc", "import_python(\"c.cinc\", \"*\")\nRETRIES = 3\n");
    side->Put("entry.cconf",
              "import_python(\"a.cinc\", \"TIMEOUT\")\n"
              "import_python(\"b.cinc\", \"*\")\n"
              "export_if_last({\"t\": TIMEOUT, \"r\": RETRIES})\n");
  }
  old_.Put("c.cinc", "LEVEL = 1\n");
  new_.Put("c.cinc", "LEVEL = 1\nTIMEOUT = 30\n");
  SemanticDiffReport report = Classify({"c.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  const SymbolImpact* timeout = report.Find("entry.cconf", "TIMEOUT");
  ASSERT_NE(timeout, nullptr) << report.Summary();
  EXPECT_EQ(timeout->kind, ImpactKind::kValueDelta);
  const LintDiagnostic* g010 = FindRule(report.findings, "G010");
  ASSERT_NE(g010, nullptr) << report.Summary();
  EXPECT_EQ(g010->file, "entry.cconf");
  EXPECT_EQ(g010->line, 2);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
}

TEST_F(SemdiffTest, G010FlagsShadowingTwoReExportsDeep) {
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("a.cinc", "TIMEOUT = 5\n");
    side->Put("b.cinc", "import_python(\"c.cinc\", \"*\")\nRETRIES = 3\n");
    side->Put("c.cinc", "import_python(\"d.cinc\", \"*\")\nLEVEL = 1\n");
    side->Put("entry.cconf",
              "import_python(\"a.cinc\", \"TIMEOUT\")\n"
              "import_python(\"b.cinc\", \"*\")\n"
              "export_if_last({\"t\": TIMEOUT, \"r\": RETRIES})\n");
  }
  old_.Put("d.cinc", "DEPTH = 2\n");
  new_.Put("d.cinc", "DEPTH = 2\nTIMEOUT = 30\n");
  SemanticDiffReport report = Classify({"d.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  const LintDiagnostic* g010 = FindRule(report.findings, "G010");
  ASSERT_NE(g010, nullptr) << report.Summary();
  EXPECT_EQ(g010->file, "entry.cconf");
  EXPECT_EQ(g010->line, 2);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
}

TEST_F(SemdiffTest, G010FlagsShadowingByAnImportInsideABlock) {
  // The star import sits in a module-level if block; it still runs at
  // module level, so b.cinc's new TIMEOUT shadows the one from a.cinc.
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("a.cinc", "TIMEOUT = 5\n");
    side->Put("entry.cconf",
              "import_python(\"a.cinc\", \"TIMEOUT\")\n"
              "ON = 1\n"
              "if ON > 0:\n"
              "    import_python(\"b.cinc\", \"*\")\n"
              "export_if_last({\"t\": TIMEOUT, \"r\": RETRIES})\n");
  }
  old_.Put("b.cinc", "RETRIES = 3\n");
  new_.Put("b.cinc", "RETRIES = 3\nTIMEOUT = 30\n");
  SemanticDiffReport report = Classify({"b.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  const SymbolImpact* timeout = report.Find("entry.cconf", "TIMEOUT");
  ASSERT_NE(timeout, nullptr) << report.Summary();
  EXPECT_EQ(timeout->kind, ImpactKind::kValueDelta);
  const LintDiagnostic* g010 = FindRule(report.findings, "G010");
  ASSERT_NE(g010, nullptr) << report.Summary();
  EXPECT_EQ(g010->file, "entry.cconf");
  EXPECT_EQ(g010->line, 4);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
}

TEST_F(SemdiffTest, G010IgnoresImportsInExclusiveArms) {
  // Only one arm of each if/elif/else runs, so the star imports in them
  // never shadow one another, though every module defines TIMEOUT.
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("prod.cinc", "TIMEOUT = 5\n");
    side->Put("dev.cinc", "TIMEOUT = 30\n");
    side->Put("test.cinc", "TIMEOUT = 1\n");
  }
  old_.Put("entry.cconf",
           "import_python(\"prod.cinc\", \"*\")\n"
           "export_if_last({\"t\": TIMEOUT})\n");
  new_.Put("entry.cconf",
           "STAGE = 1\n"
           "if STAGE == 0:\n"
           "    import_python(\"prod.cinc\", \"*\")\n"
           "elif STAGE == 1:\n"
           "    import_python(\"dev.cinc\", \"*\")\n"
           "else:\n"
           "    import_python(\"test.cinc\", \"*\")\n"
           "export_if_last({\"t\": TIMEOUT})\n");
  SemanticDiffReport report = Classify({"entry.cconf"}, {});
  EXPECT_TRUE(report.sound);
  EXPECT_EQ(CountRule(report.findings, "G010"), 0u) << report.Summary();
}

TEST_F(SemdiffTest, G010FlagsShadowingOfWhatEitherArmBound) {
  // After the if/else, TIMEOUT holds prod.cinc's or dev.cinc's definition;
  // the import of lib.cinc rebinds it, and dev.cinc's too, which only the
  // else arm binds. The imports inside the arms shadow nothing.
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("prod.cinc", "TIMEOUT = 5\n");
    side->Put("dev.cinc", "TIMEOUT = 30\nDEBUG = 1\n");
    side->Put("lib.cinc", "TIMEOUT = 1\nDEBUG = 0\n");
  }
  old_.Put("entry.cconf",
           "import_python(\"prod.cinc\", \"*\")\n"
           "export_if_last({\"t\": TIMEOUT})\n");
  new_.Put("entry.cconf",
           "PROD = 1\n"
           "if PROD > 0:\n"
           "    import_python(\"prod.cinc\", \"*\")\n"
           "else:\n"
           "    import_python(\"dev.cinc\", \"*\")\n"
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"t\": TIMEOUT, \"d\": DEBUG})\n");
  SemanticDiffReport report = Classify({"entry.cconf"}, {});
  EXPECT_TRUE(report.sound);
  ASSERT_EQ(CountRule(report.findings, "G010"), 2u) << report.Summary();
  std::set<std::string> names;
  for (const LintDiagnostic& d : report.findings) {
    if (d.rule_id != "G010") {
      continue;
    }
    EXPECT_EQ(d.line, 6) << d.message;
    names.insert(d.message.substr(d.message.find("rebinds")));
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "rebinds 'DEBUG' already bound by the import of "
                       "'dev.cinc'",
                       "rebinds 'TIMEOUT' already bound by the import of "
                       "'dev.cinc'"}));
}

TEST_F(SemdiffTest, G010IgnoresTheSameDefinitionReExported) {
  // bench/synthetic_repo.h's chained modules: mod010 re-exports
  // BASE_PORT_9 from mod009, and the entry also imports it from mod009.
  // Both imports bind the one definition, so nothing is shadowed.
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("lib/mod010.cinc",
              "import_python(\"lib/mod009.cinc\", \"BASE_PORT_9\")\n"
              "BASE_PORT_10 = BASE_PORT_9 + 1\n");
    side->Put("entry.cconf",
              "import_python(\"lib/mod010.cinc\", \"*\")\n"
              "import_python(\"lib/mod009.cinc\", \"BASE_PORT_9\")\n"
              "export_if_last({\"a\": BASE_PORT_10, \"b\": BASE_PORT_9})\n");
  }
  old_.Put("lib/mod009.cinc", "BASE_PORT_9 = 9009\n");
  new_.Put("lib/mod009.cinc", "BASE_PORT_9 = 9010\n");
  SemanticDiffReport report =
      Classify({"lib/mod009.cinc"}, {"entry.cconf"});
  EXPECT_TRUE(report.sound);
  EXPECT_EQ(CountRule(report.findings, "G010"), 0u) << report.Summary();
}

TEST_F(SemdiffTest, G007IgnoresSymbolsWhoseReadersWerePruned) {
  // The commit moves Y; only y.cconf reads it, so Sandcastle prunes
  // x.cconf, the one reader of X. X predates the commit: no G007.
  old_.Put("lib.cinc", "X = 1\nY = 2\n");
  new_.Put("lib.cinc", "X = 1\nY = 3\n");
  for (InMemorySources* side : {&old_, &new_}) {
    side->Put("x.cconf",
              "import_python(\"lib.cinc\", \"X\")\n"
              "export_if_last({\"x\": X})\n");
    side->Put("y.cconf",
              "import_python(\"lib.cinc\", \"Y\")\n"
              "export_if_last({\"y\": Y})\n");
  }
  SemanticDiffReport report = Classify({"lib.cinc"}, {"y.cconf"});
  ASSERT_TRUE(report.sound);
  EXPECT_EQ(CountRule(report.findings, "G007"), 0u) << report.Summary();
}

TEST_F(SemdiffTest, G007FlagsAnAddedSymbolNothingReads) {
  old_.Put("lib.cinc", "USED = 1\n");
  new_.Put("lib.cinc", "USED = 1\n# new knob\nDEAD = 99\n");
  const char* entry =
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last({\"used\": USED})\n";
  old_.Put("entry.cconf", entry);
  new_.Put("entry.cconf", entry);
  SemanticDiffReport report = Classify({"lib.cinc"}, {"entry.cconf"});
  ASSERT_TRUE(report.sound);
  const LintDiagnostic* g007 = FindRule(report.findings, "G007");
  ASSERT_NE(g007, nullptr) << report.Summary();
  EXPECT_EQ(g007->file, "lib.cinc");
  EXPECT_EQ(g007->line, 3);
  EXPECT_NE(g007->message.find("DEAD"), std::string::npos);
  EXPECT_EQ(g007->severity, LintSeverity::kWarning);
  EXPECT_EQ(CountRule(report.findings, "G007"), 1u);

  // The same symbol read by an entry the commit also edits is alive.
  new_.Put("entry.cconf",
           "import_python(\"lib.cinc\", \"*\")\n"
           "export_if_last({\"used\": USED, \"dead\": DEAD})\n");
  SemanticDiffReport read = Classify({"lib.cinc", "entry.cconf"}, {});
  EXPECT_EQ(CountRule(read.findings, "G007"), 0u) << read.Summary();
}

TEST_F(SemdiffTest, G007IgnoresAnAddedSymbolItsModuleReads) {
  // No file of the closure reads BASE; PORT, in the same module, does.
  old_.Put("lib.cinc", "PORT = 8080\n");
  new_.Put("lib.cinc", "BASE = 8000\nPORT = BASE + 80\n");
  SemanticDiffReport report = Classify({"lib.cinc"}, {});
  ASSERT_TRUE(report.sound);
  EXPECT_EQ(CountRule(report.findings, "G007"), 0u) << report.Summary();

  // Without that read, BASE is dead on arrival.
  new_.Put("lib.cinc", "BASE = 8000\nPORT = 8080\n");
  EXPECT_EQ(CountRule(Classify({"lib.cinc"}, {}).findings, "G007"), 1u);
}

// ---- Diff-hunk -> symbol attribution ----------------------------------------

TEST(AttributeDiffLinesTest, AttributesHunksToDefinitionRanges) {
  std::string old_text =
      "A = 1\n"
      "B = {\n"
      "    \"x\": 1,\n"
      "}\n"
      "C = 3\n";
  std::string new_text =
      "A = 1\n"
      "B = {\n"
      "    \"x\": 2,\n"
      "    \"y\": 9,\n"
      "}\n"
      "C = 4\n";
  auto old_surface = ComputeSymbolSurface(ParseCsl(old_text, "m.cinc"));
  auto new_surface = ComputeSymbolSurface(ParseCsl(new_text, "m.cinc"));
  auto attributed = AttributeDiffLines(old_surface, new_surface,
                                       DiffLines(old_text, new_text));
  ASSERT_EQ(attributed.count("B"), 1u);
  ASSERT_EQ(attributed.count("C"), 1u);
  EXPECT_EQ(attributed.count("A"), 0u);  // Untouched symbol: no lines.
  // B's changed lines are inside its new-side dict literal.
  for (int line : attributed.at("B")) {
    EXPECT_GE(line, 2);
    EXPECT_LE(line, 5);
  }
}

TEST(AttributeDiffLinesTest, CommentAndBlankHunksAreNotAttributed) {
  // A changed line that is blank or comment-only can fall inside a symbol's
  // def range (trailing comments share the range of multi-line defs) but
  // cannot change its value; attributing it used to flag the symbol as
  // touched and defeat the no-op certificate.
  std::string old_text =
      "B = {\n"
      "    \"x\": 1,\n"
      "    # tuning notes\n"
      "}\n";
  std::string new_text =
      "B = {\n"
      "    \"x\": 1,\n"
      "    # tuning notes, revised\n"
      "\n"
      "}\n";
  auto old_surface = ComputeSymbolSurface(ParseCsl(old_text, "m.cinc"));
  auto new_surface = ComputeSymbolSurface(ParseCsl(new_text, "m.cinc"));
  auto attributed = AttributeDiffLines(old_surface, new_surface,
                                       DiffLines(old_text, new_text));
  EXPECT_EQ(attributed.count("B"), 0u);

  // A real edit in the same hunk still attributes.
  std::string value_text =
      "B = {\n"
      "    \"x\": 2,\n"
      "    # tuning notes, revised\n"
      "}\n";
  auto value_surface =
      ComputeSymbolSurface(ParseCsl(value_text, "m.cinc"));
  auto value_attr = AttributeDiffLines(old_surface, value_surface,
                                       DiffLines(old_text, value_text));
  EXPECT_EQ(value_attr.count("B"), 1u);
}

TEST(AttributeDiffLinesTest, DiffOpsCarryLineNumbers) {
  LineDiff diff = DiffLines("a\nb\nc\n", "a\nX\nc\n");
  int keeps = 0;
  for (const DiffOp& op : diff.ops) {
    if (op.kind == DiffOp::Kind::kKeep) {
      EXPECT_GT(op.old_line, 0);
      EXPECT_GT(op.new_line, 0);
      ++keeps;
    } else if (op.kind == DiffOp::Kind::kDelete) {
      EXPECT_EQ(op.old_line, 2);
      EXPECT_EQ(op.new_line, 0);
    } else {
      EXPECT_EQ(op.new_line, 2);
      EXPECT_EQ(op.old_line, 0);
    }
  }
  EXPECT_EQ(keeps, 2);
}

// ---- Determinism regression -------------------------------------------------

TEST(SemdiffDeterminismTest, ReportIsByteStableAcrossRuns) {
  InMemorySources old_sources;
  InMemorySources new_sources;
  old_sources.Put("a.cinc", "X = 1\nY = 2\nDEAD1 = 7\nDEAD2 = 8\n");
  new_sources.Put("a.cinc", "X = 2\nY = \"s\"\nDEAD1 = 7\nDEAD2 = 8\n");
  old_sources.Put("e.cconf",
                  "import_python(\"a.cinc\", \"*\")\n"
                  "export_if_last({\"x\": X, \"y\": Y})\n");
  new_sources.Put("e.cconf",
                  "import_python(\"a.cinc\", \"*\")\n"
                  "export_if_last({\"x\": X, \"y\": Y})\n");

  auto render = [&]() {
    SemanticDiffer differ(old_sources.AsReader(), new_sources.AsReader());
    SemanticDiffReport report = differ.Classify({"a.cinc"}, {"e.cconf"});
    std::string out = report.Summary() + "\n";
    for (const SymbolImpact& impact : report.impacts) {
      out += impact.Describe() + "\n";
    }
    for (const LintDiagnostic& d : report.findings) {
      out += d.Format() + "\n";
    }
    return out;
  };
  std::string first = render();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(render(), first) << "run " << i;
  }
}

TEST(SemdiffDeterminismTest, DiagnosticOrderTieBreaksOnColumnAndMessage) {
  // Same file and line: order must fall back to column, rule, then message
  // so reports never depend on emission order.
  LintDiagnostic a;
  a.rule_id = "G008";
  a.file = "f.cconf";
  a.line = 3;
  a.column = 9;
  a.message = "zzz";
  LintDiagnostic b = a;
  b.column = 2;
  b.message = "aaa";
  LintDiagnostic c = a;
  c.column = 9;
  c.message = "aaa";
  std::vector<LintDiagnostic> diags = {a, b, c};
  SortDiagnostics(&diags);
  EXPECT_EQ(diags[0].column, 2);
  EXPECT_EQ(diags[1].message, "aaa");
  EXPECT_EQ(diags[1].column, 9);
  EXPECT_EQ(diags[2].message, "zzz");

  std::vector<LintDiagnostic> reversed = {c, b, a};
  SortDiagnostics(&reversed);
  for (size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(reversed[i].Format(), diags[i].Format());
  }
}

TEST(SemdiffDeterminismTest, MessageOrdersBeforeRuleIdOnColumnTie) {
  // Two producers firing different rules on the same file/line/column must
  // order by message first, rule id second — so the report is identical no
  // matter which pass emitted its finding first.
  LintDiagnostic g10;
  g10.rule_id = "G010";
  g10.file = "f.cconf";
  g10.line = 4;
  g10.column = 1;
  g10.message = "aaa import shadowed";
  LintDiagnostic g7 = g10;
  g7.rule_id = "G007";
  g7.message = "zzz symbol is dead";
  EXPECT_TRUE(LintDiagnosticOrder(g10, g7));   // message wins...
  EXPECT_FALSE(LintDiagnosticOrder(g7, g10));

  LintDiagnostic same_msg = g10;
  same_msg.rule_id = "G008";
  EXPECT_TRUE(LintDiagnosticOrder(same_msg, g10));  // ...then rule id.

  std::vector<LintDiagnostic> diags = {g7, g10};
  SortDiagnostics(&diags);
  EXPECT_EQ(diags[0].rule_id, "G010");
  EXPECT_EQ(diags[1].rule_id, "G007");
}

// ---- Scripted 20-commit sequence (the semdiff lane runs this) ---------------

TEST(SemdiffScriptedSequenceTest, TwentyCommitClassifications) {
  // A scripted history over one small repo: each step edits the tree and
  // states the expected classification of its probe symbol. This is the
  // smoke sequence the semdiff lane asserts on.
  struct Step {
    const char* lib;            // Content of lib.cinc after the commit.
    ImpactKind expected;        // Classification of lib.cinc:TUNABLE.
    bool expect_provable_noop;  // Whole-commit certificate.
  };
  const char* entry =
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last({\"v\": TUNABLE, \"k\": KEEP})\n";
  // Alternate value bumps, comment edits, type flips, and reverts.
  const std::vector<Step> steps = {
      {"TUNABLE = 1\nKEEP = 0\n# rev1\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 1\nKEEP = 0\n# rev2\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 2\nKEEP = 0\n# rev2\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 2\nKEEP = 0\n", ImpactKind::kNoOp, true},
      {"TUNABLE = \"two\"\nKEEP = 0\n", ImpactKind::kTypeChange, false},
      {"TUNABLE = \"two\"\nKEEP = 0\n# doc\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 3\nKEEP = 0\n", ImpactKind::kTypeChange, false},
      {"TUNABLE = 4\nKEEP = 0\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 4\nKEEP = 0\n# note\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 5\nKEEP = 0\n# note\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 5\nKEEP = 0\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 5 + 1\nKEEP = 0\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 6\nKEEP = 0\n", ImpactKind::kNoOp, true},
      {"TUNABLE = [6]\nKEEP = 0\n", ImpactKind::kTypeChange, false},
      {"TUNABLE = [6]\nKEEP = 0\n# list now\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 7\nKEEP = 0\n", ImpactKind::kTypeChange, false},
      {"TUNABLE = 8\nKEEP = 0\n", ImpactKind::kValueDelta, false},
      {"TUNABLE = 8\nKEEP = 0\n# a\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 8\nKEEP = 0\n# b\n", ImpactKind::kNoOp, true},
      {"TUNABLE = 9\nKEEP = 0\n# b\n", ImpactKind::kValueDelta, false},
  };
  ASSERT_EQ(steps.size(), 20u);

  std::string head = "TUNABLE = 0\nKEEP = 0\n# rev0\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    InMemorySources old_sources;
    InMemorySources new_sources;
    old_sources.Put("lib.cinc", head);
    new_sources.Put("lib.cinc", steps[i].lib);
    old_sources.Put("entry.cconf", entry);
    new_sources.Put("entry.cconf", entry);
    SemanticDiffer differ(old_sources.AsReader(), new_sources.AsReader());
    SemanticDiffReport report = differ.Classify({"lib.cinc"}, {"entry.cconf"});
    ASSERT_TRUE(report.sound) << "commit " << i;
    const SymbolImpact* probe = report.Find("lib.cinc", "TUNABLE");
    ASSERT_NE(probe, nullptr) << "commit " << i;
    EXPECT_EQ(probe->kind, steps[i].expected)
        << "commit " << i << ": " << probe->Describe();
    EXPECT_EQ(report.provably_noop, steps[i].expect_provable_noop)
        << "commit " << i << ": " << report.Summary();
    // Certificate coherence: a provably-no-op commit must leave the
    // untouched KEEP symbol and the export no-op too.
    const SymbolImpact* keep = report.Find("lib.cinc", "KEEP");
    ASSERT_NE(keep, nullptr);
    EXPECT_EQ(keep->kind, ImpactKind::kNoOp) << "commit " << i;
    head = steps[i].lib;
  }
}

// ---- Pipeline integration ---------------------------------------------------

class SemdiffPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        repo_
            .Commit("init", "init",
                    {{"flags.cinc", "USE_BIG = True\nEXTRA = 1\n"},
                     {"entry.cconf",
                      "import_python(\"flags.cinc\", \"*\")\n"
                      "if USE_BIG:\n"
                      "    export_if_last({\"mem\": 4096})\n"
                      "else:\n"
                      "    export_if_last({\"mem\": 512})\n"}})
            .ok());
    deps_.UpdateEntry("entry.cconf", {"flags.cinc"});
  }

  Repository repo_;
  DependencyService deps_;
};

TEST_F(SemdiffPipelineTest, SandcastleAttachesClassificationToLanding) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(repo_, "alice", "flip guard",
                                       {{"flags.cinc",
                                         "USE_BIG = False\nEXTRA = 1\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_FALSE(report.provably_noop);
  ASSERT_FALSE(report.semantic_impacts.empty());
  // The latent consequence in the UNTOUCHED dependent is classified.
  const SymbolImpact* exported = nullptr;
  for (const SymbolImpact& impact : report.semantic_impacts) {
    if (impact.file == "entry.cconf" && impact.symbol == "entry.json") {
      exported = &impact;
    }
  }
  ASSERT_NE(exported, nullptr) << report.Summary();
  EXPECT_EQ(exported->kind, ImpactKind::kControlShift) << exported->Describe();
  EXPECT_NE(report.Summary().find("control-shift"), std::string::npos);
}

TEST_F(SemdiffPipelineTest, ProvablyNoOpSkipsClosureReanalysis) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "comment only",
      {{"flags.cinc", "# big-memory rollout flag\nUSE_BIG = True\nEXTRA = 1\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_TRUE(report.provably_noop) << report.Summary();
  // Fast path: the reverse closure was not re-analyzed.
  EXPECT_TRUE(report.reanalyzed_entries.empty());
  EXPECT_NE(report.Summary().find("provably no-op"), std::string::npos);
}

TEST_F(SemdiffPipelineTest, RiskAdvisorWeighsSemanticSeverity) {
  RiskAdvisor::Options options;
  options.fan_in_threshold = 1;
  RiskAdvisor advisor(options);
  ASSERT_TRUE(advisor.IndexHistory(repo_).ok());
  ProposedDiff diff = MakeProposedDiff(repo_, "alice", "edit",
                                       {{"flags.cinc",
                                         "USE_BIG = False\nEXTRA = 1\n"}});

  std::vector<SymbolImpact> noop{{"flags.cinc", "USE_BIG", ImpactKind::kNoOp}};
  std::vector<SymbolImpact> delta{
      {"flags.cinc", "USE_BIG", ImpactKind::kValueDelta}};
  std::vector<SymbolImpact> shift{
      {"flags.cinc", "USE_BIG", ImpactKind::kControlShift}};
  std::vector<SymbolImpact> type{
      {"flags.cinc", "USE_BIG", ImpactKind::kTypeChange}};

  double unweighted = advisor.Assess(diff, &deps_).score;
  EXPECT_GT(unweighted, 0.0);
  // No-op: the fan-in signal contributes nothing.
  EXPECT_LT(advisor.Assess(diff, &deps_, nullptr, &noop).score, unweighted);
  // Monotone in severity: value-delta < control-shift < type-change.
  double d = advisor.Assess(diff, &deps_, nullptr, &delta).score;
  double s = advisor.Assess(diff, &deps_, nullptr, &shift).score;
  double t = advisor.Assess(diff, &deps_, nullptr, &type).score;
  EXPECT_LT(d, s);
  EXPECT_LT(s, t);
  EXPECT_EQ(s, unweighted);  // Control-shift == full fan-in weight.
}

TEST_F(SemdiffPipelineTest, CanaryScopeCarriesValueDeltas) {
  PendingChange change;
  change.ci_report.semantic_impacts.push_back(
      {"flags.cinc", "USE_BIG", ImpactKind::kValueDelta, "True", "False"});
  change.ci_report.semantic_impacts.push_back(
      {"flags.cinc", "EXTRA", ImpactKind::kNoOp, "1", "1"});
  CanaryScope scope = change.Scope();
  ASSERT_EQ(scope.value_deltas.count("flags.cinc:USE_BIG"), 1u);
  EXPECT_EQ(scope.value_deltas.at("flags.cinc:USE_BIG"), "True -> False");
  EXPECT_EQ(scope.value_deltas.count("flags.cinc:EXTRA"), 0u);  // No-ops: no.
  EXPECT_NE(scope.Describe().find("True -> False"), std::string::npos);
}

// ---- What the no-op certificate covers --------------------------------------

TEST(NoOpCertificateTest, CoversClassifiedAndByteIdenticalWritesOnly) {
  const std::string lib = "PORT = 8080\n";
  const std::string entry =
      "import_python(\"lib.cinc\", \"*\")\n"
      "export_if_last({\"port\": PORT})\n";
  InMemorySources sources;
  sources.Put("lib.cinc", lib);
  sources.Put("svc.cconf", entry);
  auto output = ConfigCompiler(sources.AsReader()).Compile("svc.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  const std::string svc_json = output->configs.at(0).content.DumpPretty();
  const std::string spec =
      R"({"invariants": [{"name": "port", "kind": "membership",
          "subject": {"config": "svc.json", "field": "port"},
          "allowed": [8080, 9090]}]})";
  Repository repo;
  ASSERT_TRUE(
      repo.Commit("init", "init",
                  {{"lib.cinc", lib},
                   {"svc.cconf", entry},
                   {"svc.json", svc_json},
                   {"feed/limits.json", "{\"qps\": 100}"},
                   {"gatekeeper/ramp.json",
                    "{\"project\": \"ramp\", \"rules\": [{\"restraints\": "
                    "[{\"type\": \"employee\"}], \"pass_probability\": 0.5}]}"},
                   {"invariants/ports.json", spec},
                   {"schemas/unused.thrift",
                    "struct Unused { 1: optional i32 x; }\n"}})
          .ok());
  DependencyService deps;
  deps.UpdateEntry("svc.cconf", {"lib.cinc"});

  struct Case {
    const char* name;
    std::vector<FileWrite> writes;
    bool certified;
  };
  const std::vector<Case> cases = {
      {"CSL comment", {{"lib.cinc", "# the port\n" + lib}}, true},
      {"unchanged regenerated output",
       {{"lib.cinc", "# the port\n" + lib}, {"svc.json", svc_json}},
       true},
      {"Gatekeeper reformat",
       {{"gatekeeper/ramp.json",
         "{\n  \"project\": \"ramp\",\n  \"rules\": [{\"restraints\": "
         "[{\"type\": \"employee\"}],\n    \"pass_probability\": 0.5}]\n}"}},
       true},
      {"CSL value", {{"lib.cinc", "PORT = 9090\n"}}, false},
      {"raw value edit", {{"feed/limits.json", "{\"qps\": 10000}"}}, false},
      {"raw add", {{"feed/burst.json", "{\"qps\": 1}"}}, false},
      {"raw delete", {{"feed/limits.json", std::nullopt}}, false},
      {"invariant spec edit",
       {{"invariants/ports.json",
         R"({"invariants": [{"name": "port", "kind": "membership",
             "subject": {"config": "svc.json", "field": "port"},
             "allowed": [8080]}]})"}},
       false},
      {"schema nothing reads",
       {{"schemas/unused.thrift",
         "struct Unused { 1: optional i32 x = 5; }\n"}},
       false},
  };
  for (const Case& c : cases) {
    Sandcastle ci(&repo, &deps);
    CiReport report =
        ci.RunTests(MakeProposedDiff(repo, "alice", c.name, c.writes));
    EXPECT_EQ(report.provably_noop, c.certified)
        << c.name << ": " << report.Summary();
    // The invariant stage (which loads the specs) runs exactly when the
    // certificate is withheld.
    EXPECT_EQ(ci.analysis_store().registry_parses(), c.certified ? 0u : 1u)
        << c.name;
  }
}

// ---- Acceptance scenario ----------------------------------------------------

TEST(SemdiffAcceptanceTest, LatentControlShiftPlusShadowingImportBlocksLanding) {
  // The seeded commit does two things at once without touching the entry:
  // flips the guard constant in flags.cinc (latent control shift in the
  // UNTOUCHED dependent) and grows shadow.cinc by a symbol that shadows
  // EXTRA from the earlier star import (G010). The entry's export must be
  // classified control-shift — not no-op — and the G010 error must block
  // the landing.
  Repository repo;
  ASSERT_TRUE(
      repo.Commit("init", "init",
                  {{"flags.cinc", "USE_BIG = True\nEXTRA = 1\n"},
                   {"shadow.cinc", "OTHER = 5\n"},
                   {"entry.cconf",
                    "import_python(\"flags.cinc\", \"*\")\n"
                    "import_python(\"shadow.cinc\", \"*\")\n"
                    "if USE_BIG:\n"
                    "    export_if_last({\"mem\": 4096})\n"
                    "else:\n"
                    "    export_if_last({\"mem\": 512})\n"}})
          .ok());
  DependencyService deps;
  deps.UpdateEntry("entry.cconf", {"flags.cinc", "shadow.cinc"});

  Sandcastle ci(&repo, &deps);
  ProposedDiff diff = MakeProposedDiff(
      repo, "mallory", "sneaky",
      {{"flags.cinc", "USE_BIG = False\nEXTRA = 1\n"},
       {"shadow.cinc", "OTHER = 5\nEXTRA = 999\n"}});
  CiReport report = ci.RunTests(diff);

  // Classified, not certified away: the untouched dependent's export is a
  // control shift (the flipped guard reroutes it to the other arm).
  EXPECT_FALSE(report.provably_noop);
  const SymbolImpact* exported = nullptr;
  for (const SymbolImpact& impact : report.semantic_impacts) {
    if (impact.file == "entry.cconf" && impact.symbol == "entry.json") {
      exported = &impact;
    }
  }
  ASSERT_NE(exported, nullptr) << report.Summary();
  EXPECT_EQ(exported->kind, ImpactKind::kControlShift) << exported->Describe();

  // ...and blocked: G010 is error severity, so the report fails.
  bool has_g010 = false;
  for (const LintDiagnostic& d : report.lint_findings) {
    has_g010 = has_g010 || d.rule_id == "G010";
  }
  EXPECT_TRUE(has_g010) << report.Summary();
  EXPECT_FALSE(report.passed) << report.Summary();
}

}  // namespace
}  // namespace configerator
