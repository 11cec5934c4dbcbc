// Differential suite for the analysis store (src/analysis/store.h): a stored
// abstract interpretation, compile output, symbol surface or invariant
// registry must never change what CI reports or what the dependency refresh
// records. The semantic differ's 500 seeded commits (tests/semdiff_commits.h)
// run over a repository that also holds a schema whose validator companion
// changes, an entry exporting that schema, and an invariants/ spec over the
// tree's outputs that some commits edit. Each commit runs through one
// long-lived Sandcastle and through a fresh one, then lands, and each side
// refreshes its own DependencyService the way LandNow does: the long-lived
// side through its store, the fresh side with uncached compiles and
// analyses.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/store.h"
#include "src/pipeline/ci.h"
#include "src/pipeline/dependency.h"
#include "src/vcs/repository.h"
#include "tests/semdiff_commits.h"

namespace configerator {
namespace {

constexpr int kCommits = 500;
const char* const kEntries[] = {"entry1.cconf", "entry2.cconf",
                                "entry3.cconf"};

std::string Validator(int low) {
  return StrFormat("def validate_Job(cfg):\n    assert cfg.mem >= %d\n", low);
}

std::string Spec(int budget) {
  return StrFormat(
      "{\"invariants\": ["
      "{\"name\": \"a-below-mem\", \"kind\": \"ordering\", "
      "\"lhs\": {\"config\": \"entry1.json\", \"field\": \"a\"}, "
      "\"relation\": \"<=\", "
      "\"rhs\": {\"config\": \"entry2.json\", \"field\": \"mem\"}}, "
      "{\"name\": \"scale-below-job\", \"kind\": \"ordering\", "
      "\"severity\": \"warning\", "
      "\"lhs\": {\"config\": \"entry1.json\", \"field\": \"scale\"}, "
      "\"relation\": \"<=\", "
      "\"rhs\": {\"config\": \"entry3.json\", \"field\": \"mem\"}}, "
      "{\"name\": \"c-known\", \"kind\": \"membership\", "
      "\"subject\": {\"config\": \"entry1.json\", \"field\": \"c\"}, "
      "\"allowed\": [\"alpha\", \"omega\"]}, "
      "{\"name\": \"b-budget\", \"kind\": \"sum\", \"severity\": \"warning\", "
      "\"terms\": [{\"config\": \"entry1.json\", \"field\": \"b\"}], "
      "\"relation\": \"<=\", \"budget\": %d}]}",
      budget);
}

// Every source file at one point of the walk: the generator's tree plus the
// schema, its validator, the entry exporting it and the invariant spec.
std::map<std::string, std::string> Files(const SemdiffTree& tree, int low,
                                         int budget) {
  std::map<std::string, std::string> files = {
      {"lib.cinc", tree.Lib()},
      {"util.cinc", tree.Util()},
      {"entry1.cconf", tree.Entry1()},
      {"entry2.cconf", tree.Entry2()},
      {"gatekeeper/ramp.json", tree.Gatekeeper()},
      {"schemas/job.thrift", "struct Job {\n  1: required i32 mem;\n}\n"},
      {"schemas/job.thrift-cvalidator", Validator(low)},
      {"entry3.cconf",
       "import_thrift(\"schemas/job.thrift\")\n"
       "import_python(\"lib.cinc\", \"A\")\n"
       "export_if_last(Job(mem=A))\n"},
      {"invariants/tree.json", Spec(budget)}};
  return files;
}

// One line per field the two Sandcastles must agree on.
std::vector<std::string> Render(const CiReport& report) {
  std::vector<std::string> out = {
      StrFormat("passed=%d noop=%d pruned=%zu truncated=%d proven=%zu "
                "jeopardy=%zu",
                report.passed, report.provably_noop, report.pruned_dependents,
                report.closure_truncated, report.invariants_proven,
                report.invariants_in_jeopardy)};
  for (const std::string& entry : report.compiled_entries) {
    out.push_back("compiled " + entry);
  }
  for (const std::string& failure : report.failures) {
    out.push_back("failure " + failure);
  }
  for (const LintDiagnostic& finding : report.lint_findings) {
    out.push_back("lint " + finding.Format());
  }
  for (const std::string& entry : report.reanalyzed_entries) {
    out.push_back("reanalyzed " + entry);
  }
  for (const SymbolImpact& impact : report.semantic_impacts) {
    out.push_back("impact " + impact.Describe());
  }
  for (const InvariantOutcome& outcome : report.invariant_outcomes) {
    out.push_back(StrFormat(
        "invariant %s %s %s | %s | %zu | %s", outcome.name.c_str(),
        std::string(InvariantStatusName(outcome.status)).c_str(),
        outcome.predicate.c_str(), outcome.detail.c_str(),
        outcome.cases_checked, outcome.witness.Describe().c_str()));
  }
  return out;
}

// What LandNow's refresh records for one entry.
struct Refresh {
  bool compiled = false;
  std::vector<std::string> dependencies;
  bool analyzed = false;
  std::shared_ptr<const SymbolSlice> used_symbols = EmptySymbolSlice();
  bool sound = false;

  // Slices compare by content, not by pointer.
  bool operator==(const Refresh& other) const {
    return compiled == other.compiled && dependencies == other.dependencies &&
           analyzed == other.analyzed &&
           *used_symbols == *other.used_symbols && sound == other.sound;
  }
};

void Apply(const std::string& entry, const Refresh& refresh,
           DependencyService* deps) {
  if (!refresh.compiled) {
    return;
  }
  deps->UpdateEntry(entry, refresh.dependencies);
  if (refresh.analyzed) {
    deps->UpdateEntrySymbols(entry, refresh.used_symbols, refresh.sound);
  }
}

class AnalysisStoreDifferentialTest : public ::testing::Test {
 protected:
  // Refreshes every entry at head on both sides and checks they agree.
  void RefreshAll(int commit) {
    FileReader head = [this](const std::string& path) {
      return repo_.ReadFile(path);
    };
    ConfigCompiler stored_compiler = long_lived_.Compiler(head);
    for (const char* entry : kEntries) {
      auto content = repo_.ReadFile(entry);
      ASSERT_TRUE(content.ok());
      Refresh stored;
      auto output = stored_compiler.Compile(entry);
      if (output.ok()) {
        stored.compiled = true;
        stored.dependencies = output->dependencies;
        auto result =
            long_lived_.analysis_store().Absint(head, entry, *content);
        stored.analyzed = result->analyzed;
        stored.used_symbols = result->used_symbols;
        stored.sound = result->slice_sound;
      }
      Refresh fresh;
      auto fresh_output = ConfigCompiler(head).Compile(entry);
      if (fresh_output.ok()) {
        fresh.compiled = true;
        fresh.dependencies = fresh_output->dependencies;
        AbsintResult result = AbstractInterpreter(head).AnalyzePath(entry);
        fresh.analyzed = result.analyzed;
        fresh.used_symbols = std::move(result.used_symbols);
        fresh.sound = result.slice_sound;
      }
      EXPECT_TRUE(stored == fresh) << "commit " << commit << ": " << entry;
      Apply(entry, stored, &stored_deps_);
      Apply(entry, fresh, &fresh_deps_);
    }
    for (const char* entry : kEntries) {
      EXPECT_EQ(stored_deps_.DependenciesOf(entry),
                fresh_deps_.DependenciesOf(entry))
          << "commit " << commit;
    }
    for (const char* symbol : {"A", "B", "C", "D", "*"}) {
      EXPECT_EQ(stored_deps_.SymbolFanIn("lib.cinc", symbol),
                fresh_deps_.SymbolFanIn("lib.cinc", symbol))
          << "commit " << commit << ": lib.cinc:" << symbol;
    }
  }

  Repository repo_;
  DependencyService stored_deps_;
  DependencyService fresh_deps_;
  Sandcastle long_lived_{&repo_, &stored_deps_};
};

TEST_F(AnalysisStoreDifferentialTest, StoredAnalysesMatchFreshOnes) {
  Rng rng(20260809);
  SemdiffTree tree;
  int low = 0;
  int budget = 250;
  std::map<std::string, std::string> head = Files(tree, low, budget);
  std::vector<FileWrite> initial;
  for (const auto& [path, content] : head) {
    initial.push_back({path, content});
  }
  ASSERT_TRUE(repo_.Commit("init", "init", initial).ok());
  RefreshAll(-1);

  size_t failed = 0;
  size_t noop = 0;
  size_t violated = 0;
  for (int commit = 0; commit < kCommits; ++commit) {
    MutateTree(rng, &tree);
    if (commit % 7 == 3) {
      low = low == 0 ? 60 : 0;  // Only the validator companion changes.
    }
    if (commit % 11 == 5) {
      budget = budget == 250 ? 150 : 250;  // Only the spec changes.
    }
    std::map<std::string, std::string> files = Files(tree, low, budget);
    std::vector<FileWrite> writes;
    for (const auto& [path, content] : files) {
      if (head[path] != content) {
        writes.push_back({path, content});
      }
    }
    // Regenerated outputs ride along, as ProposeChange adds them.
    InMemorySources sources;
    for (const auto& [path, content] : files) {
      sources.Put(path, content);
    }
    for (const char* entry : kEntries) {
      auto output = ConfigCompiler(sources.AsReader()).Compile(entry);
      if (!output.ok()) {
        continue;
      }
      for (const CompiledConfig& config : output->configs) {
        std::string json = config.content.DumpPretty();
        auto at_head = repo_.ReadFile(config.path);
        if (!at_head.ok() || *at_head != json) {
          writes.push_back({config.path, json});
        }
      }
    }
    ProposedDiff diff = MakeProposedDiff(
        repo_, "alice", StrFormat("commit %d", commit), writes);

    CiReport stored = long_lived_.RunTests(diff);
    Sandcastle fresh(&repo_, &fresh_deps_);
    CiReport fresh_report = fresh.RunTests(diff);
    EXPECT_EQ(Render(stored), Render(fresh_report)) << "commit " << commit;
    failed += stored.passed ? 0 : 1;
    noop += stored.provably_noop ? 1 : 0;
    for (const InvariantOutcome& outcome : stored.invariant_outcomes) {
      violated += outcome.status == InvariantStatus::kViolated ? 1 : 0;
    }

    ASSERT_TRUE(repo_.Commit("alice", "land", writes).ok()) << commit;
    head = std::move(files);
    RefreshAll(commit);
  }

  // The walk must reach every kind of verdict, or agreement proves little.
  EXPECT_GE(failed, 20u);
  EXPECT_GE(noop, 20u);
  EXPECT_GE(violated, 20u);
  EXPECT_GT(long_lived_.analysis_store().absint_hits(), 0u);
}

}  // namespace
}  // namespace configerator
