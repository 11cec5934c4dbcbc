// Semantic diffing + provenance analysis: the 4-way classification
// (no-op / value-delta / control-shift / type-change), the provenance graph
// (nodes, reverse edges, line attribution), the graph gating rules
// G007–G010, diff-hunk -> symbol attribution, byte-stable determinism, a
// 20-commit scripted sequence (part of the semdiff lane), and
// the acceptance scenario: a latent control shift in an UNTOUCHED dependent
// is classified (not no-op) and the landing is blocked by a G-rule error.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/provenance.h"
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

// ---- Provenance graph -------------------------------------------------------

TEST(ProvenanceGraphTest, NodesEdgesAndDependents) {
  InMemorySources sources;
  sources.Put("lib.cinc", "BASE = 8000\nPORT = BASE + 80\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"PORT\")\n"
              "export_if_last({\"port\": PORT})\n");
  ProvenanceGraph graph =
      ProvenanceGraph::Build(sources.AsReader(), {"entry.cconf"});
  EXPECT_TRUE(graph.sound());

  // The closure pulled lib.cinc in through the import.
  const ProvenanceNode* port = graph.Find("lib.cinc", "PORT");
  ASSERT_NE(port, nullptr);
  EXPECT_FALSE(port->is_export);

  // The entry's export node depends on lib.cinc:PORT...
  const ProvenanceNode* exported = graph.Find("entry.cconf", "entry.json");
  ASSERT_NE(exported, nullptr);
  EXPECT_TRUE(exported->is_export);
  ASSERT_EQ(exported->deps.count("lib.cinc"), 1u);
  EXPECT_EQ(exported->deps.at("lib.cinc").count("PORT"), 1u);

  // ...so reverse reachability finds it from the module symbol.
  auto dependents = graph.Dependents("lib.cinc", "PORT");
  bool found = false;
  for (const auto& [file, symbol] : dependents) {
    found = found || (file == "entry.cconf");
  }
  EXPECT_TRUE(found);
}

TEST(ProvenanceGraphTest, SymbolsAtLineAttribution) {
  InMemorySources sources;
  sources.Put("lib.cinc",
              "A = 1\n"
              "B = {\n"
              "    \"x\": 1,\n"
              "    \"y\": 2,\n"
              "}\n"
              "C = 3\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A, \"b\": B, \"c\": C})\n");
  ProvenanceGraph graph =
      ProvenanceGraph::Build(sources.AsReader(), {"entry.cconf"});
  EXPECT_EQ(graph.SymbolsAtLine("lib.cinc", 1),
            std::vector<std::string>{"A"});
  // Line 3 is inside B's multi-line dict literal.
  EXPECT_EQ(graph.SymbolsAtLine("lib.cinc", 3),
            std::vector<std::string>{"B"});
  EXPECT_EQ(graph.SymbolsAtLine("lib.cinc", 6),
            std::vector<std::string>{"C"});
  EXPECT_TRUE(graph.SymbolsAtLine("lib.cinc", 40).empty());
}

TEST(ProvenanceGraphTest, G007FlagsDeadModuleSymbol) {
  InMemorySources sources;
  sources.Put("lib.cinc",
              "USED = 1\n"
              "HELPER = 2\n"
              "ALIVE_VIA_HELPER = HELPER + 1\n"
              "DEAD = 99\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"used\": USED, \"a\": ALIVE_VIA_HELPER})\n");
  ProvenanceGraph graph =
      ProvenanceGraph::Build(sources.AsReader(), {"entry.cconf"});
  ASSERT_TRUE(graph.sound());
  const LintDiagnostic* g007 = FindRule(graph.findings(), "G007");
  ASSERT_NE(g007, nullptr);
  EXPECT_EQ(g007->file, "lib.cinc");
  EXPECT_EQ(g007->line, 4);
  EXPECT_NE(g007->message.find("DEAD"), std::string::npos);
  EXPECT_EQ(g007->severity, LintSeverity::kWarning);
  // HELPER is consumed intra-module; only DEAD fires.
  EXPECT_EQ(CountRule(graph.findings(), "G007"), 1u);
}

TEST(ProvenanceGraphTest, G009FlagsStaleRestraintReference) {
  InMemorySources sources;
  sources.Put("gatekeeper/exp.json",
              "{\"project\": \"exp\", \"rules\": [{\"restraints\": "
              "[{\"type\": \"abolished_restraint\"}], "
              "\"pass_probability\": 1.0}]}");
  ProvenanceGraph graph =
      ProvenanceGraph::Build(sources.AsReader(), {"gatekeeper/exp.json"});
  const LintDiagnostic* g009 = FindRule(graph.findings(), "G009");
  ASSERT_NE(g009, nullptr);
  EXPECT_EQ(g009->severity, LintSeverity::kError);
  EXPECT_NE(g009->message.find("abolished_restraint"), std::string::npos);

  // A project using only registered types is clean.
  sources.Put("gatekeeper/ok.json",
              "{\"project\": \"ok\", \"rules\": [{\"restraints\": "
              "[{\"type\": \"employee\"}], \"pass_probability\": 1.0}]}");
  ProvenanceGraph clean =
      ProvenanceGraph::Build(sources.AsReader(), {"gatekeeper/ok.json"});
  EXPECT_EQ(CountRule(clean.findings(), "G009"), 0u);
  // And its node carries restraint/context pseudo-module edges.
  const ProvenanceNode* node = clean.Find("gatekeeper/ok.json", "ok");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->is_gatekeeper);
  EXPECT_EQ(node->deps.at("restraints").count("employee"), 1u);
  EXPECT_EQ(node->deps.at("context").count("is_employee"), 1u);
}

TEST(ProvenanceGraphTest, G010FlagsShadowedImport) {
  InMemorySources sources;
  sources.Put("a.cinc", "TIMEOUT = 5\n");
  sources.Put("b.cinc", "TIMEOUT = 30\nRETRIES = 3\n");
  sources.Put("entry.cconf",
              "import_python(\"a.cinc\", \"TIMEOUT\")\n"
              "import_python(\"b.cinc\", \"*\")\n"
              "export_if_last({\"t\": TIMEOUT, \"r\": RETRIES})\n");
  ProvenanceGraph graph =
      ProvenanceGraph::Build(sources.AsReader(), {"entry.cconf"});
  const LintDiagnostic* g010 = FindRule(graph.findings(), "G010");
  ASSERT_NE(g010, nullptr);
  EXPECT_EQ(g010->severity, LintSeverity::kError);
  EXPECT_EQ(g010->file, "entry.cconf");
  EXPECT_EQ(g010->line, 2);
  EXPECT_NE(g010->message.find("TIMEOUT"), std::string::npos);
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
  auto old_surface = ComputeSymbolSurface("m.cinc", old_text);
  auto new_surface = ComputeSymbolSurface("m.cinc", new_text);
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
  auto old_surface = ComputeSymbolSurface("m.cinc", old_text);
  auto new_surface = ComputeSymbolSurface("m.cinc", new_text);
  auto attributed = AttributeDiffLines(old_surface, new_surface,
                                       DiffLines(old_text, new_text));
  EXPECT_EQ(attributed.count("B"), 0u);

  // A real edit in the same hunk still attributes.
  std::string value_text =
      "B = {\n"
      "    \"x\": 2,\n"
      "    # tuning notes, revised\n"
      "}\n";
  auto value_surface = ComputeSymbolSurface("m.cinc", value_text);
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
