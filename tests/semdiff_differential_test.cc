// Differential soundness battery for the semantic differ: across ~500
// seeded random commits over a small config repo, every symbol the differ
// certifies as *no-op* must evaluate concretely identical on both sides —
// entry exports compile to byte-identical JSON, and no-op Gatekeeper
// projects agree with the old spec on random schema-valid user contexts.
// The other classifications are over-approximations and are free to be
// conservative; the no-op certificate is the one claim that must be exact,
// because Sandcastle skips reverse-closure re-analysis on its strength.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/semdiff.h"
#include "src/gatekeeper/naive.h"
#include "src/util/sha256.h"
#include "tests/semdiff_commits.h"

namespace configerator {
namespace {

constexpr int kCommits = 500;
constexpr int kUsersPerProject = 32;

// Compiles `entry` in both trees and returns whether the generated configs
// are byte-identical (missing on both sides counts as identical).
bool CompiledEqual(const SemdiffTree& old_tree, const SemdiffTree& new_tree,
                   const std::string& entry) {
  InMemorySources old_sources = old_tree.Sources();
  InMemorySources new_sources = new_tree.Sources();
  ConfigCompiler old_compiler(old_sources.AsReader());
  ConfigCompiler new_compiler(new_sources.AsReader());
  auto old_out = old_compiler.Compile(entry);
  auto new_out = new_compiler.Compile(entry);
  if (!old_out.ok() || !new_out.ok()) {
    return old_out.ok() == new_out.ok();
  }
  if (old_out->configs.size() != new_out->configs.size()) {
    return false;
  }
  for (size_t i = 0; i < old_out->configs.size(); ++i) {
    if (old_out->configs[i].path != new_out->configs[i].path ||
        old_out->configs[i].content.Dump() !=
            new_out->configs[i].content.Dump()) {
      return false;
    }
  }
  return true;
}

TEST(SemdiffDifferentialTest, NoOpCertificatesNeverLie) {
  Rng rng(20260809);
  SemdiffTree tree;

  size_t noop_export_checks = 0;
  size_t provable_noop_commits = 0;
  size_t gk_noop_checks = 0;

  for (int commit = 0; commit < kCommits; ++commit) {
    SemdiffTree old_tree = tree;
    std::vector<std::string> touched = MutateTree(rng, &tree);

    InMemorySources old_sources = old_tree.Sources();
    InMemorySources new_sources = tree.Sources();
    SemanticDiffer differ(old_sources.AsReader(), new_sources.AsReader());
    SemanticDiffReport report =
        differ.Classify(touched, {"entry1.cconf", "entry2.cconf"});
    ASSERT_TRUE(report.sound) << "commit " << commit;

    // 1. Every export certified no-op compiles byte-identically.
    for (const SymbolImpact& impact : report.impacts) {
      if (impact.kind != ImpactKind::kNoOp ||
          !impact.symbol.ends_with(".json") ||
          !impact.file.ends_with(".cconf")) {
        continue;
      }
      ++noop_export_checks;
      EXPECT_TRUE(CompiledEqual(old_tree, tree, impact.file))
          << "commit " << commit << ": export certified no-op but concrete "
          << "compile differs: " << impact.Describe();
    }

    // 2. A provably-no-op commit leaves EVERY entry's output untouched.
    if (report.provably_noop) {
      ++provable_noop_commits;
      for (const char* entry : {"entry1.cconf", "entry2.cconf"}) {
        EXPECT_TRUE(CompiledEqual(old_tree, tree, entry))
            << "commit " << commit << " was certified provably no-op but "
            << entry << " compiles differently";
      }
    }

    // 3. A no-op Gatekeeper project decides identically on random users.
    const SymbolImpact* gk = report.Find("gatekeeper/ramp.json", "ramp");
    if (gk != nullptr && gk->kind == ImpactKind::kNoOp) {
      auto old_json = Json::Parse(old_tree.Gatekeeper());
      auto new_json = Json::Parse(tree.Gatekeeper());
      ASSERT_TRUE(old_json.ok() && new_json.ok());
      auto old_project = NaiveEvaluator::FromJson(*old_json);
      auto new_project = NaiveEvaluator::FromJson(*new_json);
      ASSERT_TRUE(old_project.ok() && new_project.ok());
      ++gk_noop_checks;
      for (int u = 0; u < kUsersPerProject; ++u) {
        UserContext user = RandomUser(rng);
        EXPECT_EQ(old_project->Check(user, nullptr),
                  new_project->Check(user, nullptr))
            << "commit " << commit << ": no-op gatekeeper spec diverges";
      }
    }
  }

  // The battery must actually exercise the certificates, or it proves
  // nothing: expect a healthy number of no-op verdicts across 500 commits.
  EXPECT_GE(noop_export_checks, 100u);
  EXPECT_GE(provable_noop_commits, 20u);
  EXPECT_GE(gk_noop_checks, 10u);
}

// Every report of the 500 commits above folded into one SHA-256: each
// impact's Describe(), each finding's Format() (G007 aside: its verdict is
// not a refactor's to keep), `sound` and `provably_noop`. Recorded from the
// differ before its closure walk moved into Classify; a change that alters
// any classification or finding changes it. If the change is intended, run
//   build/tests/semdiff_differential_test --gtest_filter=*GoldenDigest
// and replace the constant with the digest the failure reports.
constexpr char kGoldenDigest[] =
    "d6523b2511e4106710987a5e9dca557f6c533bce4927b92120bfd458717f7e54";

TEST(SemdiffDifferentialTest, ReportsMatchGoldenDigest) {
  Rng rng(20260809);
  SemdiffTree tree;
  Sha256 digest;
  for (int commit = 0; commit < kCommits; ++commit) {
    SemdiffTree old_tree = tree;
    std::vector<std::string> touched = MutateTree(rng, &tree);
    InMemorySources old_sources = old_tree.Sources();
    InMemorySources new_sources = tree.Sources();
    SemanticDiffer differ(old_sources.AsReader(), new_sources.AsReader());
    SemanticDiffReport report =
        differ.Classify(touched, {"entry1.cconf", "entry2.cconf"});
    std::string record = StrFormat("sound=%d noop=%d", report.sound,
                                   report.provably_noop);
    for (const SymbolImpact& impact : report.impacts) {
      record += "\n" + impact.Describe();
    }
    for (const LintDiagnostic& finding : report.findings) {
      if (finding.rule_id != "G007") {
        record += "\n" + finding.Format();
      }
    }
    // Length-prefixed, so record boundaries cannot shift between commits.
    digest.Update(StrFormat("%zu:", record.size()));
    digest.Update(record);
  }
  EXPECT_EQ(digest.Finish().ToHex(), kGoldenDigest);
}

}  // namespace
}  // namespace configerator
