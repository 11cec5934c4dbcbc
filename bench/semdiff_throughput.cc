// Semantic-diff throughput: commits/sec for SemanticDiffer::Classify over
// the shared synthetic 1k-file repository. Sandcastle classifies every
// proposal's per-symbol impact before deciding whether to re-analyze the
// reverse closure, so this number bounds the landing rate one analysis
// host can sustain. The scripted sequence cycles the three commit shapes
// that dominate real traffic: comment-only module edits (provably no-op),
// module value bumps (value-delta fanning out to importers), and
// entry-local comment edits.
//
// Two rows run the same commits: "fresh" gives each commit its own differ
// and analyzes every version afresh (the ablation), "stored" shares one
// long-lived AnalysisStore across commits, as Sandcastle does, so each
// version is analyzed once and head's side is a lookup. Both rows must
// produce the same reports: impacts, findings and certificates.
//
// Emits BENCH_semdiff.json next to the working directory for the bench
// trajectory.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/synthetic_repo.h"
#include "src/analysis/semdiff.h"
#include "src/analysis/store.h"
#include "src/json/json.h"
#include "src/util/sha256.h"
#include "src/util/strings.h"
#include "src/util/table.h"

using namespace configerator;

namespace {

constexpr int kCommits = 100;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

InMemorySources SourcesFrom(const std::map<std::string, std::string>& tree) {
  InMemorySources sources;
  for (const auto& [path, content] : tree) {
    sources.Put(path, content);
  }
  return sources;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Semantic diff throughput — per-symbol commit classification",
      "commits/sec for SemanticDiffer over the synthetic 1k-file repo; "
      "bounds the landing rate one Sandcastle analysis host sustains");

  SyntheticRepo repo = BuildSyntheticRepo();
  const size_t total_files = repo.paths.size();

  // Materialize the tree as a plain map so each scripted commit is a
  // one-file rewrite on top of the previous state.
  std::map<std::string, std::string> tree;
  for (int s = 0; s < SyntheticRepo::kSchemas; ++s) {
    std::string path = StrFormat("schemas/svc%02d.thrift", s);
    tree[path] = *repo.sources.AsReader()(path);
  }
  for (int m = 0; m < SyntheticRepo::kModules; ++m) {
    tree[SyntheticRepo::ModulePath(m)] = SyntheticRepo::ModuleSource(m);
  }
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    tree[SyntheticRepo::EntryPath(e)] = SyntheticRepo::EntrySource(e);
  }

  struct Row {
    size_t counts[4] = {0, 0, 0, 0};
    size_t provable_noops = 0;
    size_t dependents_total = 0;
    size_t impacts_total = 0;
    double classify_s = 0;
    Sha256 reports;  // Every impact and finding, for the rows' agreement.
  };
  const std::map<std::string, std::string> initial_tree = tree;
  auto run = [&](AnalysisStore* store) {
    Row row;
    std::map<std::string, std::string> tree = initial_tree;
    for (int i = 0; i < kCommits; ++i) {
      std::map<std::string, std::string> new_tree = tree;
      std::string touched_path;
      std::vector<std::string> dependents;
      switch (i % 3) {
        case 0: {  // Comment-only module edit: provably no-op.
          int m = (i * 13) % SyntheticRepo::kModules;
          touched_path = SyntheticRepo::ModulePath(m);
          new_tree[touched_path] =
              SyntheticRepo::ModuleSource(m, /*rev=*/i + 1);
          dependents = SyntheticRepo::EntriesImporting(m);
          break;
        }
        case 1: {  // Module port bump: value-delta in every importer.
          int m = (i * 13 + 1) % SyntheticRepo::kModules;
          touched_path = SyntheticRepo::ModulePath(m);
          new_tree[touched_path] =
              SyntheticRepo::ModuleSource(m, /*rev=*/0, /*port_bump=*/i + 1);
          dependents = SyntheticRepo::EntriesImporting(m);
          break;
        }
        case 2: {  // Entry-local comment edit.
          int e = (i * 7) % SyntheticRepo::kEntries;
          touched_path = SyntheticRepo::EntryPath(e);
          new_tree[touched_path] =
              StrFormat("# rev %d\n", i + 1) + SyntheticRepo::EntrySource(e);
          break;
        }
      }

      InMemorySources old_sources = SourcesFrom(tree);
      InMemorySources new_sources = SourcesFrom(new_tree);

      auto start = std::chrono::steady_clock::now();
      SemanticDiffer differ =
          store == nullptr
              ? SemanticDiffer(old_sources.AsReader(), new_sources.AsReader())
              : SemanticDiffer(old_sources.AsReader(), new_sources.AsReader(),
                               *store);
      SemanticDiffReport report = differ.Classify({touched_path}, dependents);
      row.classify_s += Seconds(start);

      for (const SymbolImpact& impact : report.impacts) {
        ++row.counts[static_cast<int>(impact.kind)];
        row.reports.Update(impact.Describe() + "\n");
      }
      for (const LintDiagnostic& finding : report.findings) {
        row.reports.Update(finding.Format() + "\n");
      }
      row.impacts_total += report.impacts.size();
      row.dependents_total += dependents.size();
      if (report.provably_noop) {
        ++row.provable_noops;
      }
      tree = std::move(new_tree);
    }
    return row;
  };
  Row fresh = run(nullptr);
  AnalysisStore store;
  Row stored = run(&store);
  if (stored.reports.Finish() != fresh.reports.Finish() ||
      stored.provable_noops != fresh.provable_noops) {
    std::fprintf(stderr, "stored and fresh rows disagree\n");
    return 1;
  }
  const size_t* counts = fresh.counts;
  const size_t provable_noops = fresh.provable_noops;
  const size_t impacts_total = fresh.impacts_total;
  const size_t dependents_total = fresh.dependents_total;
  const double classify_s = fresh.classify_s;
  const double stored_per_sec =
      static_cast<double>(kCommits) / stored.classify_s;

  double commits_per_sec = static_cast<double>(kCommits) / classify_s;
  double mean_dependents =
      static_cast<double>(dependents_total) / static_cast<double>(kCommits);

  TextTable table({"metric", "value"});
  table.AddRow({"repo files", std::to_string(total_files)});
  table.AddRow({"commits classified", std::to_string(kCommits)});
  table.AddRow({"classify time (s)", StrFormat("%.3f", classify_s)});
  table.AddRow({"commits/sec, fresh", StrFormat("%.1f", commits_per_sec)});
  table.AddRow({"commits/sec, stored", StrFormat("%.1f", stored_per_sec)});
  table.AddRow({"stored analyses (hits/misses)",
                StrFormat("%zu/%zu", store.absint_hits(),
                          store.absint_misses())});
  table.AddRow({"mean dependent entries", StrFormat("%.1f", mean_dependents)});
  table.AddRow({"impacts: no-op", std::to_string(counts[0])});
  table.AddRow({"impacts: value-delta", std::to_string(counts[1])});
  table.AddRow({"impacts: control-shift", std::to_string(counts[2])});
  table.AddRow({"impacts: type-change", std::to_string(counts[3])});
  table.AddRow({"provably no-op commits", std::to_string(provable_noops)});
  table.Print();

  Json out = Json::MakeObject();
  out.Set("bench", Json("semdiff_throughput"));
  out.Set("files", Json(static_cast<int64_t>(total_files)));
  out.Set("commits", Json(static_cast<int64_t>(kCommits)));
  out.Set("classify_seconds", Json(classify_s));
  out.Set("commits_per_sec", Json(commits_per_sec));
  out.Set("stored_classify_seconds", Json(stored.classify_s));
  out.Set("stored_commits_per_sec", Json(stored_per_sec));
  out.Set("stored_speedup", Json(stored_per_sec / commits_per_sec));
  out.Set("mean_dependent_entries", Json(mean_dependents));
  out.Set("impacts_total", Json(static_cast<int64_t>(impacts_total)));
  out.Set("impacts_noop", Json(static_cast<int64_t>(counts[0])));
  out.Set("impacts_value_delta", Json(static_cast<int64_t>(counts[1])));
  out.Set("impacts_control_shift", Json(static_cast<int64_t>(counts[2])));
  out.Set("impacts_type_change", Json(static_cast<int64_t>(counts[3])));
  out.Set("provably_noop_commits", Json(static_cast<int64_t>(provable_noops)));
  std::ofstream file("BENCH_semdiff.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_semdiff.json\n");
  return 0;
}
