#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/obs/metrics.h"
#include "src/pipeline/ci.h"
#include "src/pipeline/dependency.h"
#include "src/pipeline/landing_strip.h"
#include "src/pipeline/review.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

// ---- Landing strip -------------------------------------------------------------

TEST(LandingStripTest, LandsCleanDiff) {
  Repository repo;
  LandingStrip strip(&repo);
  ProposedDiff diff = MakeProposedDiff(repo, "alice", "add", {{"cfg", "v1"}});
  auto commit = strip.Land(diff);
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(*repo.ReadFile("cfg"), "v1");
  EXPECT_EQ(strip.landed(), 1u);
}

TEST(LandingStripTest, NoRebaseNeededForUnrelatedChanges) {
  // The whole point of the landing strip: diff X doesn't conflict with a
  // later-landed diff Y touching different files.
  Repository repo;
  ASSERT_TRUE(repo.Commit("init", "init", {{"a", "1"}, {"b", "1"}}).ok());
  LandingStrip strip(&repo);

  ProposedDiff diff_x = MakeProposedDiff(repo, "alice", "edit a", {{"a", "2"}});
  ProposedDiff diff_y = MakeProposedDiff(repo, "bob", "edit b", {{"b", "2"}});

  // Y lands first; X — based on the same old head — still lands cleanly.
  ASSERT_TRUE(strip.Land(diff_y).ok());
  ASSERT_TRUE(strip.Land(diff_x).ok());
  EXPECT_EQ(*repo.ReadFile("a"), "2");
  EXPECT_EQ(*repo.ReadFile("b"), "2");
}

TEST(LandingStripTest, TrueConflictRejected) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("init", "init", {{"shared", "v1"}}).ok());
  LandingStrip strip(&repo);

  ProposedDiff diff_x = MakeProposedDiff(repo, "alice", "x", {{"shared", "x"}});
  ProposedDiff diff_y = MakeProposedDiff(repo, "bob", "y", {{"shared", "y"}});

  ASSERT_TRUE(strip.Land(diff_y).ok());
  auto conflict = strip.Land(diff_x);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kConflict);
  EXPECT_EQ(strip.conflicts(), 1u);
  EXPECT_EQ(*repo.ReadFile("shared"), "y");

  // After refreshing against the new head, the diff lands.
  ProposedDiff rebased = MakeProposedDiff(repo, "alice", "x2", {{"shared", "x"}});
  EXPECT_TRUE(strip.Land(rebased).ok());
}

TEST(LandingStripTest, CreateCreateConflictDetected) {
  Repository repo;
  LandingStrip strip(&repo);
  ProposedDiff diff_x = MakeProposedDiff(repo, "alice", "x", {{"new", "x"}});
  ProposedDiff diff_y = MakeProposedDiff(repo, "bob", "y", {{"new", "y"}});
  ASSERT_TRUE(strip.Land(diff_x).ok());
  EXPECT_EQ(strip.Land(diff_y).status().code(), StatusCode::kConflict);
}

TEST(LandingStripTest, DeleteDeleteIsConflict) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("init", "init", {{"gone", "v"}}).ok());
  LandingStrip strip(&repo);
  ProposedDiff diff_x =
      MakeProposedDiff(repo, "alice", "del", {{"gone", std::nullopt}});
  ProposedDiff diff_y =
      MakeProposedDiff(repo, "bob", "del", {{"gone", std::nullopt}});
  ASSERT_TRUE(strip.Land(diff_x).ok());
  // The second deleter's base no longer matches (file absent now).
  EXPECT_EQ(strip.Land(diff_y).status().code(), StatusCode::kConflict);
}

TEST(LandingStripTest, BaseIdsAreTheBlobIdsDiffCommitsReports) {
  Repository repo;
  auto before = repo.Commit("init", "init", {{"a", "1"}, {"b", "1"}});
  ASSERT_TRUE(before.ok());
  LandingStrip strip(&repo);
  ProposedDiff diff = MakeProposedDiff(
      repo, "alice", "m", {{"a", "2"}, {"b", std::nullopt}, {"c", "3"}});
  auto after = strip.Land(diff);
  ASSERT_TRUE(after.ok()) << after.status();
  auto deltas = repo.DiffCommits(*before, *after);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), diff.base.size());
  for (const FileDelta& delta : *deltas) {
    EXPECT_EQ(diff.base.at(delta.path), delta.old_blob) << delta.path;
    EXPECT_EQ(repo.HeadBlobId(delta.path), delta.new_blob) << delta.path;
  }
  EXPECT_FALSE(diff.base.at("c").has_value());
}

TEST(LandingStripTest, VeryDeepPathRejected) {
  // Tree flushing and diffing recurse once per path segment: a 20,000-segment
  // path must be refused before it lands, or the next diff overflows the
  // stack.
  Repository repo;
  auto first = repo.Commit("init", "init", {{"cfg", "v1"}});
  ASSERT_TRUE(first.ok());
  LandingStrip strip(&repo);
  std::string deep;
  for (int i = 0; i < 20'000; ++i) {
    deep += "d/";
  }
  deep += "f";
  auto rejected = strip.Land(MakeProposedDiff(repo, "alice", "deep", {{deep, "v"}}));
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(strip.landed(), 0u);

  auto landed = strip.Land(MakeProposedDiff(repo, "alice", "m", {{"cfg", "v2"}}));
  ASSERT_TRUE(landed.ok()) << landed.status();
  auto deltas = repo.DiffCommits(*first, *landed);
  ASSERT_TRUE(deltas.ok()) << deltas.status();
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].path, "cfg");
}

TEST(LandingStripTest, SerializationEqualsSequentialApplication) {
  // Property: landing N racing diffs (different files) leaves the repo in
  // the same state as applying them sequentially.
  Repository racing;
  Repository sequential;
  LandingStrip strip(&racing);
  std::vector<ProposedDiff> diffs;
  for (int i = 0; i < 20; ++i) {
    std::string path = "cfg" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    diffs.push_back(MakeProposedDiff(racing, "author", "m", {{path, value}}));
  }
  // All diffs made against the same (empty) base, landed FCFS.
  for (const ProposedDiff& diff : diffs) {
    ASSERT_TRUE(strip.Land(diff).ok());
    ASSERT_TRUE(sequential.Commit(diff.author, diff.message, diff.writes).ok());
  }
  EXPECT_EQ(racing.ListFiles(), sequential.ListFiles());
  for (const std::string& path : racing.ListFiles()) {
    EXPECT_EQ(*racing.ReadFile(path), *sequential.ReadFile(path));
  }
}

TEST(LandingStripTest, ThreadSafeUnderConcurrentLanders) {
  Repository repo;
  LandingStrip strip(&repo);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&strip, &repo, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string path = "t" + std::to_string(t) + "/c" + std::to_string(i);
        ProposedDiff diff = MakeProposedDiff(repo, "tool", "m", {{path, "v"}});
        ASSERT_TRUE(strip.Land(diff).ok());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(repo.file_count(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(strip.landed(), static_cast<uint64_t>(kThreads * kPerThread));
}

// ---- Dependency service ---------------------------------------------------------

TEST(DependencyServiceTest, TracksAndInverts) {
  DependencyService deps;
  deps.UpdateEntry("app.cconf", {"app_port.cinc", "job.thrift"});
  deps.UpdateEntry("firewall.cconf", {"app_port.cinc"});

  auto affected = deps.EntriesAffectedBy({"app_port.cinc"});
  ASSERT_EQ(affected.size(), 2u);
  EXPECT_EQ(affected[0], "app.cconf");
  EXPECT_EQ(affected[1], "firewall.cconf");

  affected = deps.EntriesAffectedBy({"job.thrift"});
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], "app.cconf");
}

TEST(DependencyServiceTest, EntryDependsOnItself) {
  DependencyService deps;
  deps.UpdateEntry("solo.cconf", {});
  auto affected = deps.EntriesAffectedBy({"solo.cconf"});
  ASSERT_EQ(affected.size(), 1u);
}

TEST(DependencyServiceTest, UpdateReplacesOldEdges) {
  DependencyService deps;
  deps.UpdateEntry("e.cconf", {"old.cinc"});
  deps.UpdateEntry("e.cconf", {"new.cinc"});
  EXPECT_TRUE(deps.EntriesAffectedBy({"old.cinc"}).empty());
  EXPECT_EQ(deps.EntriesAffectedBy({"new.cinc"}).size(), 1u);
}

TEST(DependencyServiceTest, RemoveEntry) {
  DependencyService deps;
  deps.UpdateEntry("e.cconf", {"shared.cinc"});
  deps.RemoveEntry("e.cconf");
  EXPECT_TRUE(deps.EntriesAffectedBy({"shared.cinc"}).empty());
  EXPECT_EQ(deps.entry_count(), 0u);
}

TEST(DependencyServiceTest, MultipleChangedPathsDeduplicated) {
  DependencyService deps;
  deps.UpdateEntry("e.cconf", {"a.cinc", "b.cinc"});
  auto affected = deps.EntriesAffectedBy({"a.cinc", "b.cinc"});
  EXPECT_EQ(affected.size(), 1u);
}

// ---- Review -----------------------------------------------------------------

TEST(ReviewTest, ApprovalFlow) {
  ReviewService reviews;
  ProposedDiff diff;
  diff.author = "alice";
  int64_t id = reviews.Submit(diff);
  EXPECT_FALSE(reviews.IsApproved(id));
  EXPECT_EQ(reviews.open_reviews(), 1u);
  ASSERT_TRUE(reviews.Approve(id, "bob").ok());
  EXPECT_TRUE(reviews.IsApproved(id));
  EXPECT_EQ(reviews.open_reviews(), 0u);
}

TEST(ReviewTest, SelfReviewForbidden) {
  ReviewService reviews;
  ProposedDiff diff;
  diff.author = "alice";
  int64_t id = reviews.Submit(diff);
  EXPECT_EQ(reviews.Approve(id, "alice").code(), StatusCode::kRejected);
  EXPECT_FALSE(reviews.IsApproved(id));
}

TEST(ReviewTest, RejectionSticks) {
  ReviewService reviews;
  ProposedDiff diff;
  diff.author = "alice";
  int64_t id = reviews.Submit(diff);
  ASSERT_TRUE(reviews.Reject(id, "bob", "looks wrong").ok());
  EXPECT_EQ(reviews.Approve(id, "carol").code(), StatusCode::kRejected);
  auto record = reviews.Get(id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->rejection_reason, "looks wrong");
}

TEST(ReviewTest, TestResultsAttached) {
  ReviewService reviews;
  ProposedDiff diff;
  diff.author = "alice";
  int64_t id = reviews.Submit(diff);
  ASSERT_TRUE(reviews.PostTestResults(id, "PASS: 3 entries").ok());
  auto record = reviews.Get(id);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ((*record)->test_results.size(), 1u);
  EXPECT_EQ((*record)->test_results[0], "PASS: 3 entries");
}

TEST(ReviewTest, UnknownIdRejected) {
  ReviewService reviews;
  EXPECT_EQ(reviews.Approve(999, "bob").code(), StatusCode::kNotFound);
  EXPECT_EQ(reviews.PostTestResults(999, "x").code(), StatusCode::kNotFound);
  EXPECT_FALSE(reviews.Get(999).ok());
}

// ---- Sandcastle CI ------------------------------------------------------------

class SandcastleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(repo_.Commit("init", "init",
                             {{"port.cinc", "PORT = 80\n"},
                              {"app.cconf",
                               "import_python(\"port.cinc\", \"*\")\n"
                               "export_if_last({\"port\": PORT})\n"}})
                    .ok());
    deps_.UpdateEntry("app.cconf", {"port.cinc"});
  }

  Repository repo_;
  DependencyService deps_;
};

TEST_F(SandcastleTest, PassingDiff) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff =
      MakeProposedDiff(repo_, "alice", "bump port", {{"port.cinc", "PORT = 8080\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  ASSERT_EQ(report.compiled_entries.size(), 1u);
  EXPECT_EQ(report.compiled_entries[0], "app.cconf");
}

TEST_F(SandcastleTest, BrokenDiffFails) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(repo_, "alice", "break it",
                                       {{"port.cinc", "PORT = undefined_name\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.Summary().find("FAIL"), std::string::npos);
}

TEST_F(SandcastleTest, NewEntryInDiffIsCompiled) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "new entry",
      {{"brand_new.cconf", "export_if_last({\"fresh\": True})\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_EQ(report.compiled_entries.size(), 1u);
}

TEST_F(SandcastleTest, UnrelatedChangeCompilesNothing) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff =
      MakeProposedDiff(repo_, "alice", "doc", {{"README", "hello"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.compiled_entries.empty());
}

TEST_F(SandcastleTest, UnitCacheIsSharedAcrossRunTestsCalls) {
  MetricsRegistry metrics;
  Sandcastle ci(&repo_, &deps_, &metrics);

  // First run: the evaluating session parses both units (entry + imported
  // module). The entry's whole-entry output is memoized with the reads the
  // session made.
  ProposedDiff first =
      MakeProposedDiff(repo_, "alice", "bump", {{"port.cinc", "PORT = 81\n"}});
  EXPECT_TRUE(ci.RunTests(first).passed);
  uint64_t hits_after_first = metrics.GetCounter("csl.unit_cache.hits")->value();
  uint64_t misses_after_first =
      metrics.GetCounter("csl.unit_cache.misses")->value();
  EXPECT_EQ(hits_after_first, 0u);
  EXPECT_EQ(misses_after_first, 2u);
  EXPECT_EQ(metrics.GetCounter("csl.output_cache.hits")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("csl.output_cache.misses")->value(), 1u);

  // Same diff re-validated: every recorded read returns the same bytes, so
  // the memoized output replays — no unit-cache traffic, no evaluation at
  // all.
  EXPECT_TRUE(ci.RunTests(first).passed);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.hits")->value(),
            hits_after_first);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.misses")->value(),
            misses_after_first);
  EXPECT_EQ(metrics.GetCounter("csl.output_cache.hits")->value(), 1u);

  // Editing the module invalidates exactly that unit: the read of it
  // returns new bytes, so the output memo misses, and the session
  // re-evaluates over the kept parse of the untouched entry (one hit) and a
  // fresh parse of the module (one miss).
  ProposedDiff second =
      MakeProposedDiff(repo_, "alice", "bump", {{"port.cinc", "PORT = 82\n"}});
  EXPECT_TRUE(ci.RunTests(second).passed);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.hits")->value(),
            hits_after_first + 1);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.misses")->value(),
            misses_after_first + 1);
  EXPECT_EQ(metrics.GetCounter("csl.output_cache.misses")->value(), 2u);
}

TEST_F(SandcastleTest, OverlayReaderSeesDiffAndRepo) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff =
      MakeProposedDiff(repo_, "a", "m", {{"port.cinc", "PORT = 9\n"}});
  FileReader reader = ci.OverlayReader(diff);
  EXPECT_EQ(*reader("port.cinc"), "PORT = 9\n");       // From the diff.
  EXPECT_NE((*reader("app.cconf")).find("import"), std::string::npos);  // Repo.
  EXPECT_FALSE(reader("missing").ok());
}

TEST_F(SandcastleTest, RawJsonConfigsValidated) {
  Sandcastle ci(&repo_, &deps_);
  // Broken JSON in a .json config fails CI even though nothing compiles it.
  ProposedDiff bad = MakeProposedDiff(repo_, "tool", "m",
                                      {{"traffic/weights.json", "{not json"}});
  CiReport report = ci.RunTests(bad);
  EXPECT_FALSE(report.passed);

  ProposedDiff good = MakeProposedDiff(
      repo_, "tool", "m", {{"traffic/weights.json", "{\"r0\": 0.5}"}});
  EXPECT_TRUE(ci.RunTests(good).passed);
}

TEST_F(SandcastleTest, GatekeeperProjectConfigsValidated) {
  Sandcastle ci(&repo_, &deps_);
  // Parses as JSON but is not a valid project (unknown restraint type).
  ProposedDiff bad = MakeProposedDiff(
      repo_, "tool", "m",
      {{"gatekeeper/X.json",
        R"({"project": "X", "rules": [{"restraints":
            [{"type": "no_such_restraint"}], "pass_probability": 1.0}]})"}});
  CiReport report = ci.RunTests(bad);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("no_such_restraint"), std::string::npos);

  ProposedDiff good = MakeProposedDiff(
      repo_, "tool", "m",
      {{"gatekeeper/X.json",
        R"({"project": "X", "rules": [{"restraints":
            [{"type": "employee"}], "pass_probability": 1.0}]})"}});
  EXPECT_TRUE(ci.RunTests(good).passed);
}

TEST_F(SandcastleTest, GatekeeperProjectMustLiveAtItsPath) {
  // gatekeeper/A.json declaring project "B" would serve as B, and deleting
  // the file would tombstone A: B would outlive its file.
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff misnamed = MakeProposedDiff(
      repo_, "tool", "m",
      {{"gatekeeper/A.json",
        R"({"project": "B", "rules": [{"restraints":
            [{"type": "employee"}], "pass_probability": 1.0}]})"}});
  CiReport report = ci.RunTests(misnamed);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("gatekeeper/B.json"), std::string::npos);
}

TEST_F(SandcastleTest, CanarySpecConfigsValidated) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff bad = MakeProposedDiff(
      repo_, "tool", "m", {{"feed/x.cconf.canary.json", R"({"phases": []})"}});
  EXPECT_FALSE(ci.RunTests(bad).passed);

  ProposedDiff good = MakeProposedDiff(
      repo_, "tool", "m",
      {{"feed/x.cconf.canary.json",
        R"({"phases": [{"num_servers": 20, "hold_time_s": 60}]})"}});
  EXPECT_TRUE(ci.RunTests(good).passed);
}

TEST_F(SandcastleTest, LintErrorBlocksDiffThatCompiles) {
  Sandcastle ci(&repo_, &deps_);
  // Duplicate dict keys compile fine (last write wins) but almost always
  // mean a botched merge — lint flags them at error severity, so the diff
  // is rejected even though every entry recompiled successfully.
  ProposedDiff bad = MakeProposedDiff(
      repo_, "alice", "merge",
      {{"limits.cconf",
        "export_if_last({\"max_conn\": 100, \"max_conn\": 500})\n"}});
  CiReport report = ci.RunTests(bad);
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.failures.empty());  // The compile itself was clean.
  ASSERT_EQ(report.lint_errors(), 1u);
  EXPECT_EQ(report.lint_findings[0].rule_id, "L005");
  EXPECT_NE(report.Summary().find("[L005]"), std::string::npos);
}

TEST_F(SandcastleTest, LintWarningOnlyDiffPasses) {
  Sandcastle ci(&repo_, &deps_);
  // Same shape of diff, but the finding is warning severity (constant
  // ternary condition): advisory, never blocks.
  ProposedDiff warn = MakeProposedDiff(
      repo_, "alice", "tweak",
      {{"limits.cconf",
        "max_conn = 100 if True else 500\n"
        "export_if_last({\"max_conn\": max_conn})\n"}});
  CiReport report = ci.RunTests(warn);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_EQ(report.lint_errors(), 0u);
  ASSERT_EQ(report.lint_warnings(), 1u);
  EXPECT_EQ(report.lint_findings[0].rule_id, "L009");
  // The warning still reaches reviewers through the summary.
  EXPECT_NE(report.Summary().find("[L009]"), std::string::npos);
}

TEST_F(SandcastleTest, LintResolvesImportsThroughOverlay) {
  Sandcastle ci(&repo_, &deps_);
  // The .cconf references a name defined by a .cinc added in the SAME diff:
  // lint must resolve the import through the overlay, not repo head.
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "new pair",
      {{"tiers.cinc", "TIERS = [\"hot\", \"cold\"]\n"},
       {"tiers.cconf",
        "import_python(\"tiers.cinc\", \"*\")\n"
        "export_if_last({\"tiers\": TIERS})\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_TRUE(report.lint_findings.empty());
}

TEST_F(SandcastleTest, GatekeeperContradictionBlocksLanding) {
  Sandcastle ci(&repo_, &deps_);
  // Valid as a project (raw validator passes) but the conjunction can never
  // match anyone — lint's G001 catches what schema validation cannot.
  ProposedDiff bad = MakeProposedDiff(
      repo_, "alice", "gate",
      {{"gatekeeper/rollout.json",
        R"({"project": "rollout", "rules": [{"pass_probability": 1.0,
            "restraints": [
              {"type": "employee"},
              {"type": "employee", "negate": true}]}]})"}});
  CiReport report = ci.RunTests(bad);
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.failures.empty());
  ASSERT_EQ(report.lint_errors(), 1u);
  EXPECT_EQ(report.lint_findings[0].rule_id, "G001");
}

TEST_F(SandcastleTest, DeletedFileInvisibleThroughOverlay) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff =
      MakeProposedDiff(repo_, "a", "del", {{"port.cinc", std::nullopt}});
  FileReader reader = ci.OverlayReader(diff);
  EXPECT_FALSE(reader("port.cinc").ok());
  // And CI catches the now-broken dependent entry.
  CiReport report = ci.RunTests(diff);
  EXPECT_FALSE(report.passed);
}

TEST_F(SandcastleTest, CommentOnlyModuleCommitPrunesItsImporters) {
  Sandcastle ci(&repo_, &deps_);
  CiReport report = ci.RunTests(MakeProposedDiff(
      repo_, "alice", "document the port",
      {{"port.cinc", "# the service port\nPORT = 80\n"}}));
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_TRUE(report.provably_noop) << report.Summary();
  EXPECT_EQ(report.pruned_dependents, 1u);
  for (const SymbolImpact& impact : report.semantic_impacts) {
    EXPECT_EQ(impact.file, "port.cinc") << impact.Describe();
  }
}

TEST_F(SandcastleTest, CompiledOutputMustMatchItsEntry) {
  auto head = ConfigCompiler([this](const std::string& path) {
                return repo_.ReadFile(path);
              }).Compile("app.cconf");
  ASSERT_TRUE(head.ok()) << head.status();
  ASSERT_TRUE(repo_
                  .Commit("alice", "land output",
                          {{"app.json", head->configs.at(0).content.DumpPretty()}})
                  .ok());
  Sandcastle ci(&repo_, &deps_);
  auto names_entry = [](const CiReport& report) {
    for (const std::string& failure : report.failures) {
      if (failure.find("app.cconf") != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  // The output the new source compiles to, written with it, passes.
  std::vector<FileWrite> bump = {{"port.cinc", "PORT = 8080\n"}};
  auto regenerated =
      ci.Compiler(ci.OverlayReader(MakeProposedDiff(repo_, "a", "b", bump)))
          .Compile("app.cconf");
  ASSERT_TRUE(regenerated.ok()) << regenerated.status();
  bump.push_back({"app.json", regenerated->configs.at(0).content.DumpPretty()});
  CiReport passing = ci.RunTests(MakeProposedDiff(repo_, "alice", "bump", bump));
  EXPECT_TRUE(passing.passed) << passing.Summary();

  // A hand edit of the output alone fails and names its entry.
  CiReport hand_edit = ci.RunTests(MakeProposedDiff(
      repo_, "mallory", "hand edit", {{"app.json", "{\"port\": 1}"}}));
  EXPECT_FALSE(hand_edit.passed) << hand_edit.Summary();
  EXPECT_TRUE(names_entry(hand_edit)) << hand_edit.Summary();

  // So does deleting the output while its entry stays.
  CiReport deletion = ci.RunTests(MakeProposedDiff(
      repo_, "mallory", "drop output", {{"app.json", std::nullopt}}));
  EXPECT_FALSE(deletion.passed) << deletion.Summary();
  EXPECT_TRUE(names_entry(deletion)) << deletion.Summary();
}

// ---- Symbol-level dependency edges ------------------------------------------

std::shared_ptr<const SymbolSlice> Slice(SymbolSlice slice) {
  return std::make_shared<const SymbolSlice>(std::move(slice));
}

TEST(DependencySymbolsTest, SoundSlicePrunesUnrelatedDependents) {
  DependencyService deps;
  deps.UpdateEntry("app.cconf", {"shared.cinc"});
  deps.UpdateEntry("web.cconf", {"shared.cinc"});
  deps.UpdateEntrySymbols("app.cconf", Slice({{"shared.cinc", {"APP_PORT"}}}),
                          /*sound=*/true);
  deps.UpdateEntrySymbols("web.cconf", Slice({{"shared.cinc", {"WEB_PORT"}}}),
                          /*sound=*/true);

  auto affected = deps.EntriesAffectedBySymbols("shared.cinc", {"APP_PORT"});
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], "app.cconf");
  // File-level view still returns both.
  EXPECT_EQ(deps.EntriesAffectedBy({"shared.cinc"}).size(), 2u);
}

TEST(DependencySymbolsTest, UnsoundSliceFallsBackToFileLevel) {
  DependencyService deps;
  deps.UpdateEntry("app.cconf", {"shared.cinc"});
  deps.UpdateEntrySymbols("app.cconf", Slice({{"shared.cinc", {"APP_PORT"}}}),
                          /*sound=*/false);
  // Slice is unsound (a dynamic import somewhere): never prune.
  EXPECT_EQ(deps.EntriesAffectedBySymbols("shared.cinc", {"OTHER"}).size(), 1u);
}

TEST(DependencySymbolsTest, MissingSliceFallsBackToFileLevel) {
  DependencyService deps;
  deps.UpdateEntry("app.cconf", {"shared.cinc"});
  EXPECT_EQ(deps.EntriesAffectedBySymbols("shared.cinc", {"ANY"}).size(), 1u);
}

TEST(DependencySymbolsTest, SurfaceGrowthAffectsStarImporters) {
  DependencyService deps;
  deps.UpdateEntry("star.cconf", {"shared.cinc"});
  deps.UpdateEntry("narrow.cconf", {"shared.cinc"});
  deps.UpdateEntrySymbols("star.cconf", Slice({{"shared.cinc", {"*", "A"}}}),
                          /*sound=*/true);
  deps.UpdateEntrySymbols("narrow.cconf", Slice({{"shared.cinc", {"A"}}}),
                          /*sound=*/true);
  // A new symbol appeared ("*"): star importers can be shadowed, narrow
  // imports cannot.
  auto affected = deps.EntriesAffectedBySymbols("shared.cinc", {"*"});
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], "star.cconf");
}

TEST(DependencySymbolsTest, EmptyChangeSetPrunesEveryOtherDependent) {
  // ChangedSymbols reports no symbol for a comment-only edit: no dependent
  // can observe it, whatever its slice. The edited entry itself stays.
  DependencyService deps;
  deps.UpdateEntry("app.cconf", {"shared.cinc"});
  deps.UpdateEntry("web.cconf", {"shared.cinc"});
  deps.UpdateEntry("shared.cinc", {});
  deps.UpdateEntrySymbols("app.cconf", Slice({{"shared.cinc", {"*", "PORT"}}}),
                          /*sound=*/true);
  auto affected = deps.EntriesAffectedBySymbols("shared.cinc", {});
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], "shared.cinc");
  EXPECT_TRUE(deps.EntriesAffectedBySymbols("app.cconf", {}) ==
              std::vector<std::string>{"app.cconf"});
}

TEST(DependencySymbolsTest, SymbolFanIn) {
  DependencyService deps;
  deps.UpdateEntry("a.cconf", {"shared.cinc"});
  deps.UpdateEntry("b.cconf", {"shared.cinc"});
  deps.UpdateEntry("c.cconf", {"shared.cinc"});
  deps.UpdateEntrySymbols("a.cconf", Slice({{"shared.cinc", {"PORT"}}}), true);
  deps.UpdateEntrySymbols("b.cconf", Slice({{"shared.cinc", {"HOST"}}}), true);
  // c has no slice: counts conservatively for every symbol.
  EXPECT_EQ(deps.SymbolFanIn("shared.cinc", "PORT"), 2u);
  EXPECT_EQ(deps.SymbolFanIn("shared.cinc", "HOST"), 2u);
  EXPECT_EQ(deps.SymbolFanIn("shared.cinc", "UNUSED"), 1u);
}

// ---- Reverse-closure re-analysis --------------------------------------------

class ClosureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        repo_
            .Commit("init", "init",
                    {{"schemas/job.thrift",
                      "struct Job {\n"
                      "  1: required string name;\n"
                      "  2: optional i32 memory_mb = 256;\n"
                      "}\n"},
                     {"flags.cinc", "ENABLE_BONUS = False\nBONUS = 512\n"},
                     {"worker.cconf",
                      "import_thrift(\"schemas/job.thrift\")\n"
                      "import_python(\"flags.cinc\", \"*\")\n"
                      "j = Job(name=\"worker\")\n"
                      "if ENABLE_BONUS:\n"
                      "    j.memory_mb = BONUS\n"
                      "export_if_last(j)\n"}})
            .ok());
    deps_.UpdateEntry("worker.cconf", {"flags.cinc", "schemas/job.thrift"});
  }

  Repository repo_;
  DependencyService deps_;
};

TEST_F(ClosureTest, TypeBrokenUntouchedDependentBlocks) {
  // The diff only edits flags.cinc. The concrete compile of worker.cconf
  // still succeeds (ENABLE_BONUS stays False, so the bad branch never
  // runs) — but the abstract re-analysis of the untouched dependent sees
  // BONUS flow into an i32 field as a string and blocks the diff.
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "rename bonus",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = \"none\"\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.failures.empty());  // Every entry still compiles.
  ASSERT_EQ(report.reanalyzed_entries.size(), 1u);
  EXPECT_EQ(report.reanalyzed_entries[0], "worker.cconf");
  bool t010 = false;
  for (const LintDiagnostic& d : report.lint_findings) {
    t010 = t010 || (d.rule_id == "T010" && d.file == "worker.cconf");
  }
  EXPECT_TRUE(t010) << report.Summary();
}

TEST_F(ClosureTest, HarmlessEditToSharedFilePasses) {
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "bigger bonus",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = 1024\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
}

TEST_F(ClosureTest, SymbolSlicePrunesReanalysis) {
  // worker.cconf reads neither symbol of misc.cinc; with a sound slice the
  // closure drops it entirely.
  deps_.UpdateEntry("worker.cconf",
                    {"flags.cinc", "schemas/job.thrift", "misc.cinc"});
  deps_.UpdateEntrySymbols(
      "worker.cconf",
      Slice({{"flags.cinc", {"*", "ENABLE_BONUS", "BONUS"}},
             {"schemas/job.thrift", {"*"}}}),
      /*sound=*/true);
  ASSERT_TRUE(repo_.Commit("add", "bob", {{"misc.cinc", "UNRELATED = 1\n"}}).ok());
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(repo_, "bob", "tweak unrelated",
                                       {{"misc.cinc", "UNRELATED = 2\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_TRUE(report.reanalyzed_entries.empty());
  EXPECT_EQ(report.pruned_dependents, 1u);
}

TEST_F(ClosureTest, ClosureCapTruncatesWithNotice) {
  const int dependents = static_cast<int>(Sandcastle::kMaxClosure) + 6;
  for (int i = 0; i < dependents; ++i) {
    std::string entry = StrFormat("gen%d.cconf", i);
    deps_.UpdateEntry(entry, {"flags.cinc"});
    ASSERT_TRUE(repo_
                    .Commit("add", "bob",
                            {{entry,
                              "import_python(\"flags.cinc\", \"*\")\n"
                              "export_if_last({\"bonus\": BONUS})\n"}})
                    .ok());
  }
  Sandcastle ci(&repo_, &deps_);
  ProposedDiff diff = MakeProposedDiff(
      repo_, "alice", "bump",
      {{"flags.cinc", "ENABLE_BONUS = False\nBONUS = 256\n"}});
  CiReport report = ci.RunTests(diff);
  EXPECT_TRUE(report.closure_truncated);
  EXPECT_EQ(report.reanalyzed_entries.size(), Sandcastle::kMaxClosure);
  EXPECT_NE(report.Summary().find("closure truncated"), std::string::npos);
}

TEST(DiffChangedSymbolsTest, ReportsEditedSymbolsOnly) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("init", "init",
                          {{"m.cinc", "A = 1\nB = 2\n"}})
                  .ok());
  ProposedDiff diff =
      MakeProposedDiff(repo, "alice", "edit", {{"m.cinc", "A = 5\nB = 2\n"}});
  auto changed = DiffChangedSymbols(repo, diff);
  ASSERT_EQ(changed.count("m.cinc"), 1u);
  ASSERT_TRUE(changed["m.cinc"].has_value());
  EXPECT_EQ(changed["m.cinc"]->count("A"), 1u);
  EXPECT_EQ(changed["m.cinc"]->count("B"), 0u);
}

}  // namespace
}  // namespace configerator
