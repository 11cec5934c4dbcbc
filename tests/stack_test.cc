// End-to-end tests of the whole pipeline: author → compile → review → CI →
// canary → land → tail → Zeus → proxy → application.

#include <gtest/gtest.h>

#include "src/core/mutator.h"
#include "src/analysis/store.h"
#include "src/core/stack.h"
#include "src/gatekeeper/runtime.h"
#include "src/lang/unit_cache.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

class StackTest : public ::testing::Test {
 protected:
  std::vector<FileWrite> JobSources() {
    return {
        {"schemas/job.thrift",
         "struct Job { 1: required string name; 2: optional i32 mem = 64; }\n"},
        {"feed/cache.cconf",
         "import_thrift(\"schemas/job.thrift\")\n"
         "export_if_last(Job(name=\"cache\", mem=1024))\n"},
    };
  }

  ConfigManagementStack stack_;
};

TEST_F(StackTest, ProposeCompilesGeneratedConfigs) {
  auto change = stack_.ProposeChange("alice", "add cache job", JobSources());
  ASSERT_TRUE(change.ok()) << change.status();
  EXPECT_TRUE(change->ci_report.passed) << change->ci_report.Summary();
  // The diff carries sources + the generated JSON.
  bool has_json = false;
  for (const FileWrite& write : change->diff.writes) {
    if (write.path == "feed/cache.json") {
      has_json = true;
      EXPECT_NE(write.content->find("1024"), std::string::npos);
    }
  }
  EXPECT_TRUE(has_json);
}

// Sandcastle records the CSL engine's series (docs/LANGUAGE.md, "Evaluation
// and caching") into the stack's registry, so a proposal's compiles are
// visible at run time.
TEST_F(StackTest, ProposalRecordsCslMetricsInTheStackRegistry) {
  auto change = stack_.ProposeChange("alice", "add cache job", JobSources());
  ASSERT_TRUE(change.ok()) << change.status();
  const MetricsRegistry& metrics = stack_.obs().metrics;
  for (const char* counter :
       {"csl.unit_cache.hits", "csl.unit_cache.misses",
        "csl.output_cache.hits", "csl.output_cache.misses"}) {
    EXPECT_NE(metrics.FindCounter(counter), nullptr) << counter;
  }
  const Counter* misses = metrics.FindCounter("csl.output_cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value(), 0u);
  for (const char* histogram : {"csl.compile_micros", "csl.execute_micros"}) {
    const Histogram* h = metrics.FindHistogram(histogram);
    ASSERT_NE(h, nullptr) << histogram;
    EXPECT_GT(h->count(), 0u) << histogram;
  }
}

TEST_F(StackTest, CompileErrorBlocksProposal) {
  auto change = stack_.ProposeChange(
      "alice", "broken",
      {{"bad.cconf", "export_if_last(undefined_variable)\n"}});
  EXPECT_FALSE(change.ok());
}

TEST_F(StackTest, UnreviewedChangeCannotLand) {
  auto change = stack_.ProposeChange("alice", "add", JobSources());
  ASSERT_TRUE(change.ok());
  auto landed = stack_.LandNow(*change);
  ASSERT_FALSE(landed.ok());
  EXPECT_EQ(landed.status().code(), StatusCode::kRejected);
}

TEST_F(StackTest, SelfApprovalRejected) {
  auto change = stack_.ProposeChange("alice", "add", JobSources());
  ASSERT_TRUE(change.ok());
  EXPECT_FALSE(stack_.Approve(&*change, "alice").ok());
}

TEST_F(StackTest, ApprovedChangeLandsAndDistributes) {
  auto change = stack_.ProposeChange("alice", "add", JobSources());
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());

  // Subscribe an application on a far-away server before landing.
  ServerId app_server{1, 1, 5};
  std::string received;
  stack_.SubscribeServer(app_server, "feed/cache.json",
                         [&](const std::string&, const std::string& value,
                             int64_t) { received = value; });
  stack_.RunFor(2 * kSimSecond);

  auto landed = stack_.LandNow(*change);
  ASSERT_TRUE(landed.ok()) << landed.status();
  EXPECT_EQ(*stack_.repo().ReadFile("feed/cache.cconf"),
            JobSources()[1].content.value());

  // Drive the simulated world: tailer polls, Zeus distributes, proxy learns.
  stack_.RunFor(30 * kSimSecond);
  EXPECT_NE(received.find("\"mem\": 1024"), std::string::npos);

  // The application reads it through the client library.
  AppConfigClient app = stack_.ClientOn(app_server);
  ASSERT_NE(app.Get("feed/cache.json"), nullptr);
}

TEST_F(StackTest, CanaryGatesLanding) {
  auto change = stack_.ProposeChange("alice", "risky", JobSources());
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());

  DefectServiceModel bad_model(ConfigDefect::kImmediateError,
                               DefectServiceModel::Params{}, 1);
  Result<ObjectId> outcome(InternalError("pending"));
  stack_.TestAndLand(*change, CanarySpec::Default(), &bad_model,
                     [&](Result<ObjectId> r) { outcome = std::move(r); });
  stack_.RunFor(20 * kSimMinute);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kRejected);
  EXPECT_FALSE(stack_.repo().FileExists("feed/cache.json"));
}

TEST_F(StackTest, CanaryPassLandsAutomatically) {
  auto change = stack_.ProposeChange("alice", "safe", JobSources());
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());

  DefectServiceModel good_model(ConfigDefect::kNone,
                                DefectServiceModel::Params{}, 2);
  Result<ObjectId> outcome(InternalError("pending"));
  stack_.TestAndLand(*change, CanarySpec::Default(), &good_model,
                     [&](Result<ObjectId> r) { outcome = std::move(r); });
  stack_.RunFor(20 * kSimMinute);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(stack_.repo().FileExists("feed/cache.json"));
}

TEST_F(StackTest, LoadSensitiveRawEditIsAbortedInTheClusterPhase) {
  // Semdiff does not model raw configs, so a raw edit earns no no-op
  // certificate and takes the two-phase canary: its cluster phase exposes
  // the load-sensitive defect the 20-server phase cannot (§6.4).
  auto initial = stack_.ProposeChange("alice", "add limits",
                                      {{"feed/limits.json", "{\"qps\": 100}"}});
  ASSERT_TRUE(initial.ok()) << initial.status();
  ASSERT_TRUE(stack_.Approve(&*initial, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*initial).ok());

  auto change = stack_.ProposeChange(
      "alice", "raise qps", {{"feed/limits.json", "{\"qps\": 10000}"}});
  ASSERT_TRUE(change.ok()) << change.status();
  EXPECT_TRUE(change->ci_report.passed) << change->ci_report.Summary();
  EXPECT_FALSE(change->ci_report.provably_noop);
  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());

  DefectServiceModel load_sensitive(ConfigDefect::kLoadSensitive,
                                    DefectServiceModel::Params{}, 3);
  Result<ObjectId> outcome(InternalError("pending"));
  stack_.TestAndLand(*change, CanarySpec::Default(), &load_sensitive,
                     [&](Result<ObjectId> r) { outcome = std::move(r); });
  stack_.RunFor(20 * kSimMinute);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kRejected);
  EXPECT_NE(outcome.status().message().find("phase2"), std::string::npos)
      << outcome.status();
  EXPECT_EQ(*stack_.repo().ReadFile("feed/limits.json"), "{\"qps\": 100}");
}

TEST_F(StackTest, DependencyChangeRegeneratesDependents) {
  // Land the shared-constant layout (§3.1 example).
  auto first = stack_.ProposeChange(
      "alice", "initial",
      {{"net/app_port.cinc", "APP_PORT = 8089\n"},
       {"net/app.cconf",
        "import_python(\"net/app_port.cinc\", \"*\")\n"
        "export_if_last({\"port\": APP_PORT})\n"},
       {"net/firewall.cconf",
        "import_python(\"net/app_port.cinc\", \"*\")\n"
        "export_if_last({\"allow\": APP_PORT})\n"}});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*first).ok());

  // Now change ONLY the shared constant. Both dependents must regenerate in
  // the same diff (one commit keeps them consistent).
  auto second = stack_.ProposeChange(
      "alice", "bump port", {{"net/app_port.cinc", "APP_PORT = 9090\n"}});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->affected_entries.size(), 2u);
  ASSERT_TRUE(stack_.Approve(&*second, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*second).ok());
  EXPECT_NE(stack_.repo().ReadFile("net/app.json")->find("9090"),
            std::string::npos);
  EXPECT_NE(stack_.repo().ReadFile("net/firewall.json")->find("9090"),
            std::string::npos);
}

TEST_F(StackTest, BrokenDependentBlocksSharedChange) {
  auto first = stack_.ProposeChange(
      "alice", "initial",
      {{"lib/base.cinc", "LIMIT = 10\n"},
       {"svc/a.cconf",
        "import_python(\"lib/base.cinc\", \"*\")\n"
        "assert LIMIT < 100, \"limit sanity\"\n"
        "export_if_last({\"limit\": LIMIT})\n"}});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*first).ok());

  // A change to the shared file that violates the dependent's assertion is
  // caught at propose time (compile of the affected entry fails).
  auto second = stack_.ProposeChange("carol", "break dependents",
                                     {{"lib/base.cinc", "LIMIT = 5000\n"}});
  EXPECT_FALSE(second.ok());
}

TEST_F(StackTest, DeletedEntryRemovesGeneratedConfig) {
  auto first = stack_.ProposeChange(
      "alice", "add", {{"tmp/x.cconf", "export_if_last({\"v\": 1})\n"}});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*first).ok());
  ASSERT_TRUE(stack_.repo().FileExists("tmp/x.json"));

  auto removal = stack_.ProposeChange("alice", "remove",
                                      {{"tmp/x.cconf", std::nullopt}});
  ASSERT_TRUE(removal.ok()) << removal.status();
  ASSERT_TRUE(stack_.Approve(&*removal, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*removal).ok());
  EXPECT_FALSE(stack_.repo().FileExists("tmp/x.cconf"));
  EXPECT_FALSE(stack_.repo().FileExists("tmp/x.json"));
}

// ---- Mutator (automation) ------------------------------------------------------

TEST_F(StackTest, MutatorWritesRawConfigs) {
  Mutator mutator(&stack_, "traffic-shifter");
  auto commit =
      mutator.WriteRawConfig("traffic/weights.json",
                             "{\n  \"region0\": 0.5\n}\n", "rebalance");
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_TRUE(stack_.repo().FileExists("traffic/weights.json"));

  auto updated = mutator.SetJsonField("traffic/weights.json", "region0",
                                      Json(0.25), "drain region0");
  ASSERT_TRUE(updated.ok());
  auto content = stack_.repo().ReadFile("traffic/weights.json");
  EXPECT_NE(content->find("0.25"), std::string::npos);
}

TEST_F(StackTest, MutatorGatekeeperRollout) {
  Mutator mutator(&stack_, "rollout-tool");
  auto project = Json::Parse(R"({
    "project": "NewFeed",
    "rules": [{"restraints": [{"type": "employee"}], "pass_probability": 1.0},
              {"restraints": [{"type": "always"}], "pass_probability": 0.01}]
  })");
  ASSERT_TRUE(project.ok());
  ASSERT_TRUE(mutator.SetGatekeeperProject(*project, "create").ok());

  // Bump rule 1 from 1% to 10%.
  ASSERT_TRUE(mutator.SetRolloutFraction("NewFeed", 1, 0.10, "expand").ok());
  auto content = stack_.repo().ReadFile(GatekeeperPath("NewFeed"));
  ASSERT_TRUE(content.ok());
  auto parsed = Json::Parse(*content);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Get("rules")->as_array()[1]
                       .Get("pass_probability")->as_double(),
                   0.10);
  // Out-of-range fraction rejected.
  EXPECT_FALSE(mutator.SetRolloutFraction("NewFeed", 1, 1.5, "oops").ok());
  EXPECT_FALSE(mutator.SetRolloutFraction("NewFeed", 9, 0.5, "oops").ok());
}

TEST_F(StackTest, MutatorDeleteConfig) {
  Mutator mutator(&stack_, "cleaner");
  ASSERT_TRUE(mutator.WriteRawConfig("tmp/old.json", "{}", "add").ok());
  ASSERT_TRUE(mutator.DeleteConfig("tmp/old.json", "cleanup").ok());
  EXPECT_FALSE(stack_.repo().FileExists("tmp/old.json"));
}

TEST_F(StackTest, GatekeeperConfigReachesRuntimeViaDistribution) {
  // The full loop: Mutator writes a gatekeeper config; the distribution
  // pipeline carries it to a frontend server whose GatekeeperRuntime applies
  // it live.
  GatekeeperRuntime runtime;
  ServerId frontend{0, 1, 9};
  stack_.SubscribeServer(frontend, "gatekeeper/LiveProj.json",
                         [&](const std::string& path, const std::string& value,
                             int64_t) {
                           ASSERT_TRUE(runtime.ApplyConfigUpdate(path, value).ok());
                         });
  stack_.RunFor(2 * kSimSecond);

  Mutator mutator(&stack_, "rollout-tool");
  auto project = Json::Parse(R"({
    "project": "LiveProj",
    "rules": [{"restraints": [{"type": "always"}], "pass_probability": 1.0}]
  })");
  ASSERT_TRUE(mutator.SetGatekeeperProject(*project, "launch").ok());
  stack_.RunFor(30 * kSimSecond);

  ASSERT_TRUE(runtime.HasProject("LiveProj"));
  UserContext user;
  user.user_id = 7;
  EXPECT_TRUE(runtime.Check("LiveProj", user));
}

TEST_F(StackTest, HighRiskChangesAnnotatedOnReview) {
  // Land a config, then let it go dormant (timestamps are simulated time).
  auto first = stack_.ProposeChange(
      "alice", "add", {{"old/cfg.cconf", "export_if_last({\"v\": 1})\n"}});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*first).ok());

  // 200+ dormant days pass on the simulated clock.
  stack_.RunFor(210 * kSimDay);

  auto second = stack_.ProposeChange(
      "stranger", "poke dormant config",
      {{"old/cfg.cconf", "export_if_last({\"v\": 2})\n"}});
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_GE(second->risk.reasons.size(), 2u);  // Dormant + first-time author.
  bool dormant_flagged = false;
  for (const std::string& reason : second->risk.reasons) {
    if (reason.find("dormant") != std::string::npos) {
      dormant_flagged = true;
    }
  }
  EXPECT_TRUE(dormant_flagged);

  // The reviewer sees the risk note attached to the review.
  auto record = stack_.reviews().Get(second->review_id);
  ASSERT_TRUE(record.ok());
  bool note_posted = false;
  for (const std::string& result : (*record)->test_results) {
    if (result.find("dormant") != std::string::npos) {
      note_posted = true;
    }
  }
  EXPECT_TRUE(note_posted);
}

TEST_F(StackTest, CanarySpecLookup) {
  // No stored spec: the two-phase default applies.
  auto spec = stack_.CanarySpecFor("feed/cache.cconf");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->phases.size(), 2u);

  // A config-specific spec stored next to the config wins (§3.3: "a config
  // is associated with a canary spec").
  Mutator mutator(&stack_, "canary-admin");
  CanarySpec custom;
  custom.phases.push_back(
      CanaryPhase{"quick", 10, 30 * kSimSecond, 2.0, 2.0, 0.01});
  ASSERT_TRUE(mutator
                  .WriteRawConfig("feed/cache.cconf.canary.json",
                                  custom.ToJson().DumpPretty(), "custom spec")
                  .ok());
  spec = stack_.CanarySpecFor("feed/cache.cconf");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->phases.size(), 1u);
  EXPECT_EQ(spec->phases[0].name, "quick");
  EXPECT_EQ(spec->phases[0].num_servers, 10u);

  // A malformed stored spec is an error, never a silent fallback.
  ASSERT_TRUE(mutator
                  .WriteRawConfig("feed/cache.cconf.canary.json",
                                  "{\"phases\": []}", "break it")
                  .ok());
  EXPECT_FALSE(stack_.CanarySpecFor("feed/cache.cconf").ok());
}

TEST_F(StackTest, ReviewOptional) {
  ConfigManagementStack::Options options;
  options.require_review = false;
  ConfigManagementStack no_review(options);
  auto change = no_review.ProposeChange(
      "alice", "add", {{"x.cconf", "export_if_last({\"v\": 1})\n"}});
  ASSERT_TRUE(change.ok());
  EXPECT_TRUE(no_review.LandNow(*change).ok());
}

TEST_F(StackTest, CiFailureBlocksEvenWithApproval) {
  // Seed a dependency, then break it in a way only CI catches (the broken
  // entry is not recompiled by the proposal because it is not affected —
  // here we simulate by proposing a raw write that breaks a dependent).
  auto first = stack_.ProposeChange(
      "alice", "initial",
      {{"lib/c.cinc", "C = 1\n"},
       {"svc/u.cconf",
        "import_python(\"lib/c.cinc\", \"*\")\n"
        "export_if_last({\"c\": C})\n"}});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
  ASSERT_TRUE(stack_.LandNow(*first).ok());

  // Proposing a broken shared file fails at compile time already.
  auto bad = stack_.ProposeChange("carol", "typo",
                                  {{"lib/c.cinc", "C = oops_undefined\n"}});
  EXPECT_FALSE(bad.ok());
}

// ---- Symbol-level blast radius ----------------------------------------------

class BlastRadiusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto first = stack_.ProposeChange(
        "alice", "initial",
        {{"schemas/job.thrift",
          "struct Job {\n"
          "  1: required string name;\n"
          "  2: optional i32 memory_mb = 256;\n"
          "}\n"},
         {"flags.cinc", "ENABLE_BONUS = False\nBONUS = 512\n"},
         {"feed/worker.cconf",
          "import_thrift(\"schemas/job.thrift\")\n"
          "import_python(\"flags.cinc\", \"*\")\n"
          "j = Job(name=\"worker\")\n"
          "if ENABLE_BONUS:\n"
          "    j.memory_mb = BONUS\n"
          "export_if_last(j)\n"}});
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(first->ci_report.passed) << first->ci_report.Summary();
    ASSERT_TRUE(stack_.Approve(&*first, "bob").ok());
    ASSERT_TRUE(stack_.LandNow(*first).ok());
  }

  ConfigManagementStack stack_;
};

TEST_F(BlastRadiusTest, LatentTypeBreakInUntouchedDependentBlocksLanding) {
  // The edit never touches worker.cconf, and worker.cconf still *compiles*
  // (ENABLE_BONUS is False, so evaluation never takes the bad branch; canary
  // would pass for the same reason). Only the abstract re-analysis of the
  // reverse closure sees the string flow into the i32 field.
  auto change = stack_.ProposeChange(
      "carol", "rename bonus",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = \"none\"\n"}});
  ASSERT_TRUE(change.ok()) << change.status();  // Compiles fine.
  EXPECT_FALSE(change->ci_report.passed);
  bool t010 = false;
  for (const LintDiagnostic& d : change->ci_report.lint_findings) {
    t010 = t010 || (d.rule_id == "T010" && d.file == "feed/worker.cconf");
  }
  EXPECT_TRUE(t010) << change->ci_report.Summary();

  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());
  auto landed = stack_.LandNow(*change);
  ASSERT_FALSE(landed.ok());
  EXPECT_EQ(landed.status().code(), StatusCode::kRejected);
}

TEST_F(BlastRadiusTest, ChangedSymbolsComputedPerEdit) {
  auto change = stack_.ProposeChange(
      "carol", "bump bonus",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = 1024\n"}});
  ASSERT_TRUE(change.ok()) << change.status();
  EXPECT_TRUE(change->ci_report.passed) << change->ci_report.Summary();
  ASSERT_EQ(change->changed_symbols.count("flags.cinc"), 1u);
  ASSERT_TRUE(change->changed_symbols["flags.cinc"].has_value());
  EXPECT_EQ(change->changed_symbols["flags.cinc"]->count("BONUS"), 1u);
  EXPECT_EQ(change->changed_symbols["flags.cinc"]->count("ENABLE_BONUS"), 0u);
}

TEST_F(BlastRadiusTest, CanaryRunAnnotatedWithScope) {
  auto change = stack_.ProposeChange(
      "carol", "bump bonus",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = 1024\n"}});
  ASSERT_TRUE(change.ok());
  ASSERT_TRUE(stack_.Approve(&*change, "bob").ok());

  DefectServiceModel good_model(ConfigDefect::kNone,
                                DefectServiceModel::Params{}, 7);
  Result<ObjectId> outcome(InternalError("pending"));
  stack_.TestAndLand(*change, CanarySpec::Default(), &good_model,
                     [&](Result<ObjectId> r) { outcome = std::move(r); });
  stack_.RunFor(20 * kSimMinute);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  ASSERT_TRUE(stack_.canary().last_scope().has_value());
  const CanaryScope& scope = *stack_.canary().last_scope();
  ASSERT_EQ(scope.affected_entries.size(), 1u);
  EXPECT_EQ(scope.affected_entries[0], "feed/worker.cconf");
  ASSERT_EQ(scope.changed_symbols.count("flags.cinc"), 1u);
  EXPECT_EQ(scope.changed_symbols.at("flags.cinc").count("BONUS"), 1u);
  EXPECT_NE(scope.Describe().find("1 affected entry"), std::string::npos);
}

// ---- One analysis per entry version -----------------------------------------

// Four entries read BASE from lib.cinc. Counts come from the Sandcastle's
// analysis store: a miss is a fresh abstract interpretation.
class AnalysisStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<FileWrite> files = {
        {"schemas/job.thrift",
         "struct Job { 1: required string name; 2: optional i32 mem; }\n"},
        {"util.cinc", "SCALE = 2\n"},
        {"lib.cinc", Lib(1)}};
    for (int e = 0; e < kEntries; ++e) {
      files.push_back({StrFormat("e%d.cconf", e), Entry(e, 0)});
    }
    ASSERT_TRUE(Land(std::move(files)).ok());
  }

  static std::string Lib(int base) {
    return StrFormat(
        "import_python(\"util.cinc\", \"*\")\nBASE = %d * SCALE\n", base);
  }
  static std::string Entry(int e, int rev) {
    return StrFormat(
        "# rev %d\n"
        "import_thrift(\"schemas/job.thrift\")\n"
        "import_python(\"lib.cinc\", \"BASE\")\n"
        "export_if_last(Job(name=\"e%d\", mem=BASE + %d))\n",
        rev, e, e);
  }

  Result<ObjectId> Land(std::vector<FileWrite> writes) {
    auto change = stack_.ProposeChange("alice", "edit", std::move(writes));
    RETURN_IF_ERROR(change.status());
    RETURN_IF_ERROR(stack_.Approve(&*change, "bob"));
    misses_before_land_ = store().absint_misses();
    return stack_.LandNow(*change);
  }

  const AnalysisStore& store() { return stack_.sandcastle().analysis_store(); }

  static constexpr int kEntries = 4;
  ConfigManagementStack stack_;
  size_t misses_before_land_ = 0;
};

TEST_F(AnalysisStoreTest, ValueCommitAnalyzesEachNewVersionOnce) {
  size_t misses = store().absint_misses();
  ASSERT_TRUE(Land({{"lib.cinc", Lib(2)}}).ok());
  // lib.cinc and the four entries reading BASE are new versions; head's
  // versions, util.cinc and every later pass are served from the store.
  EXPECT_EQ(store().absint_misses() - misses, 1u + kEntries);
  EXPECT_EQ(store().absint_misses(), misses_before_land_)
      << "the post-land refresh re-analyzed an entry CI had analyzed";
  EXPECT_GT(store().absint_hits(), 0u);
}

TEST_F(AnalysisStoreTest, CommentOnlyCommitAnalyzesOnlyTheTouchedFile) {
  size_t misses = store().absint_misses();
  ASSERT_TRUE(Land({{"e0.cconf", Entry(0, 1)}}).ok());
  EXPECT_EQ(store().absint_misses() - misses, 1u);
  EXPECT_EQ(store().absint_misses(), misses_before_land_);
}

TEST_F(AnalysisStoreTest, RegistryIsParsedOnlyWhenASpecChanges) {
  const std::string spec =
      "{\"invariants\": [{\"name\": \"mem\", \"kind\": \"ordering\", "
      "\"lhs\": {\"config\": \"e0.json\", \"field\": \"mem\"}, "
      "\"relation\": \"<=\", "
      "\"rhs\": {\"config\": \"e1.json\", \"field\": \"mem\"}}]}";
  ASSERT_TRUE(Land({{"invariants/mem.json", spec}}).ok());
  size_t parses = store().registry_parses();
  ASSERT_TRUE(Land({{"lib.cinc", Lib(3)}}).ok());
  ASSERT_TRUE(Land({{"lib.cinc", Lib(4)}}).ok());
  EXPECT_EQ(store().registry_parses(), parses);
  ASSERT_TRUE(Land({{"invariants/mem.json", spec + "\n"}}).ok());
  EXPECT_EQ(store().registry_parses(), parses + 1);
}

TEST_F(AnalysisStoreTest, LongRunKeepsTwoVersionsPerPath) {
  for (int commit = 0; commit < 1000; ++commit) {
    ASSERT_TRUE(Land({{"lib.cinc", Lib(2 + commit)}}).ok()) << commit;
  }
  for (const char* path : {"lib.cinc", "e0.cconf", "e3.cconf"}) {
    EXPECT_LE(store().absints_for(path), 2u) << path;
  }
  const CompiledUnitCache* units =
      AnalysisStore::Units(&stack_.sandcastle().analysis_store());
  for (int e = 0; e < kEntries; ++e) {
    EXPECT_LE(units->outputs_for(StrFormat("e%d.cconf", e)), 2u);
  }
  // A proposal that reverts to the version before head is still held.
  size_t misses = store().absint_misses();
  size_t output_hits = units->output_hits();
  auto revert = stack_.ProposeChange("alice", "revert",
                                     {{"lib.cinc", Lib(2 + 998)}});
  ASSERT_TRUE(revert.ok());
  EXPECT_TRUE(revert->ci_report.passed);
  EXPECT_EQ(store().absint_misses(), misses);
  EXPECT_GT(units->output_hits(), output_hits);
}

}  // namespace
}  // namespace configerator
