// Static-analysis throughput: files/sec for ConfigLint (syntactic L-rules)
// and the abstract interpreter (semantic T-rules + symbol slices) over a
// synthetic 1k-file repository shaped like production config trees: shared
// schema files, mid-layer .cinc module libraries, and .cconf entries that
// import both. Sandcastle runs both passes over a diff's reverse closure on
// every proposal, so this number bounds how large a closure one diff can
// afford to re-analyze.
//
// Emits BENCH_lint_throughput.json next to the working directory for the
// bench trajectory.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/synthetic_repo.h"
#include "src/analysis/absint.h"
#include "src/analysis/lint.h"
#include "src/analysis/store.h"
#include "src/json/json.h"
#include "src/util/strings.h"
#include "src/util/table.h"

using namespace configerator;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Static analysis throughput — lint + abstract interpretation",
      "files/sec over a synthetic 1k-file repo (schemas, module "
      "libraries, entries); bounds Sandcastle's affordable closure size");

  SyntheticRepo repo = BuildSyntheticRepo();
  FileReader reader = repo.sources.AsReader();
  const size_t total_files = repo.paths.size();

  // Pass 1: syntactic lint, through the analysis store the linter owns.
  size_t lint_findings = 0;
  auto lint_start = std::chrono::steady_clock::now();
  {
    ConfigLint linter(reader);
    for (const std::string& path : repo.paths) {
      lint_findings += linter.LintFile(path, *reader(path)).size();
    }
  }
  double lint_s = Seconds(lint_start);

  // Pass 2: abstract interpretation (schema checks + symbol slices).
  size_t absint_findings = 0;
  size_t slices = 0;
  auto absint_start = std::chrono::steady_clock::now();
  {
    AbstractInterpreter absint(reader);
    for (const std::string& path : repo.paths) {
      AbsintResult result = absint.Analyze(path, *reader(path));
      absint_findings += result.diagnostics.size();
      slices += result.exports.size();
    }
  }
  double absint_s = Seconds(absint_start);

  // Pass 3: both analyses through one AnalysisStore, the interpreter
  // parsing through the store's unit cache (what Sandcastle's lint and
  // absint stages share): each file is parsed and pre-scanned once instead
  // of once per pass.
  size_t shared_findings = 0;
  auto shared_start = std::chrono::steady_clock::now();
  {
    AnalysisStore store;
    ConfigLint linter(reader, store);
    AbstractInterpreter absint(reader, store.units());
    for (const std::string& path : repo.paths) {
      const std::string content = *reader(path);
      shared_findings += linter.LintFile(path, content).size();
      shared_findings += absint.Analyze(path, content).diagnostics.size();
    }
  }
  double shared_s = Seconds(shared_start);

  double lint_fps = static_cast<double>(total_files) / lint_s;
  double absint_fps = static_cast<double>(total_files) / absint_s;
  double combined_fps =
      static_cast<double>(total_files) / (lint_s + absint_s);
  double shared_fps = static_cast<double>(total_files) / shared_s;
  double shared_speedup = (lint_s + absint_s) / shared_s;

  TextTable table({"pass", "files", "time (s)", "files/sec", "findings"});
  table.AddRow({"lint (L/G rules)", std::to_string(total_files),
                StrFormat("%.3f", lint_s), StrFormat("%.0f", lint_fps),
                std::to_string(lint_findings)});
  table.AddRow({"absint (T rules)", std::to_string(total_files),
                StrFormat("%.3f", absint_s), StrFormat("%.0f", absint_fps),
                std::to_string(absint_findings)});
  table.AddRow({"combined", std::to_string(total_files),
                StrFormat("%.3f", lint_s + absint_s),
                StrFormat("%.0f", combined_fps), "-"});
  table.AddRow({"combined, shared AST", std::to_string(total_files),
                StrFormat("%.3f", shared_s), StrFormat("%.0f", shared_fps),
                std::to_string(shared_findings)});
  table.Print();
  std::printf("export slices recorded: %zu\n", slices);
  std::printf("shared-AST speedup over separate passes: %.2fx\n",
              shared_speedup);

  Json out = Json::MakeObject();
  out.Set("bench", Json("lint_throughput"));
  out.Set("files", Json(static_cast<int64_t>(total_files)));
  out.Set("lint_seconds", Json(lint_s));
  out.Set("lint_files_per_sec", Json(lint_fps));
  out.Set("lint_findings", Json(static_cast<int64_t>(lint_findings)));
  out.Set("absint_seconds", Json(absint_s));
  out.Set("absint_files_per_sec", Json(absint_fps));
  out.Set("absint_findings", Json(static_cast<int64_t>(absint_findings)));
  out.Set("combined_files_per_sec", Json(combined_fps));
  out.Set("shared_ast_seconds", Json(shared_s));
  out.Set("shared_ast_files_per_sec", Json(shared_fps));
  out.Set("shared_ast_speedup", Json(shared_speedup));
  out.Set("export_slices", Json(static_cast<int64_t>(slices)));
  std::ofstream file("BENCH_lint_throughput.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_lint_throughput.json\n");
  return 0;
}
