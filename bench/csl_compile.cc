// CSL compile throughput over the shared synthetic 1k-file repository (980
// CSL files, 800 entry points), cold and warm:
//
//   cold — a fresh ConfigCompiler (and so a fresh parse cache and output
//          memo) per entry: every file in the entry's closure is read,
//          parsed and evaluated. The cost of a compile nothing was cached
//          for.
//   warm — one long-lived compiler over a shared CompiledUnitCache, after a
//          populating sweep: steady-state Sandcastle, where each entry's
//          read trace is checked (every file its last compile read is
//          re-read and byte-compared) and its memoized output replays
//          without evaluating.
//
// Each configuration sweeps all 800 entries kReps times; the JSON records
// the median, min and max entries/sec. Writes BENCH_csl_compile.json to the
// working directory. Run from a build tree: `./bench/csl_compile`.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/synthetic_repo.h"
#include "src/json/json.h"
#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"
#include "src/util/strings.h"
#include "src/util/table.h"

using namespace configerator;

namespace {

constexpr int kReps = 7;

// Compiles one entry; aborts the process on a compile error — the
// synthetic repo is known-good, so an error means the compiler is broken.
size_t CompileOrDie(ConfigCompiler& compiler, int entry) {
  auto output = compiler.Compile(SyntheticRepo::EntryPath(entry));
  if (!output.ok()) {
    std::fprintf(stderr, "FATAL: %s failed: %s\n",
                 SyntheticRepo::EntryPath(entry).c_str(),
                 output.status().ToString().c_str());
    std::abort();
  }
  return output->configs.size();
}

// Runs `sweep` kReps times; returns entries/sec per repetition, sorted.
template <typename Sweep>
std::vector<double> Rates(Sweep sweep) {
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    sweep();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    rates.push_back(SyntheticRepo::kEntries / seconds);
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

Json Spread(const std::vector<double>& sorted) {
  Json out = Json::MakeObject();
  out.Set("median", Json(sorted[sorted.size() / 2]));
  out.Set("min", Json(sorted.front()));
  out.Set("max", Json(sorted.back()));
  out.Set("reps", Json(static_cast<int64_t>(sorted.size())));
  out.Set("unit", Json("entries/s"));
  return out;
}

}  // namespace

int main() {
  PrintBenchHeader("CSL compile throughput — cold and warm",
                   "entries/sec compiling all 800 synthetic entries with a "
                   "fresh compiler per entry and with one shared cache");

  SyntheticRepo repo = BuildSyntheticRepo();
  FileReader reader = repo.sources.AsReader();

  size_t cold_configs = 0;
  std::vector<double> cold = Rates([&] {
    cold_configs = 0;
    for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
      ConfigCompiler compiler(reader);
      cold_configs += CompileOrDie(compiler, e);
    }
  });

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler warm_compiler(reader, options);
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    CompileOrDie(warm_compiler, e);  // Populates the cache and the memo.
  }
  size_t misses_after_warmup = cache.misses();
  size_t output_hits_before = cache.output_hits();
  size_t warm_configs = 0;
  std::vector<double> warm = Rates([&] {
    warm_configs = 0;
    for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
      warm_configs += CompileOrDie(warm_compiler, e);
    }
  });
  size_t warm_output_hits = cache.output_hits() - output_hits_before;

  if (cold_configs != warm_configs) {
    std::fprintf(stderr, "FATAL: cold and warm exported different counts\n");
    std::abort();
  }
  if (cache.misses() != misses_after_warmup) {
    std::fprintf(stderr, "FATAL: warm sweeps re-parsed an unchanged file\n");
    std::abort();
  }

  double cold_median = cold[cold.size() / 2];
  double warm_median = warm[warm.size() / 2];
  TextTable table({"config", "entries/sec (median)", "min", "max"});
  auto row = [&table](const char* name, const std::vector<double>& rates) {
    table.AddRow({name, StrFormat("%.1f", rates[rates.size() / 2]),
                  StrFormat("%.1f", rates.front()),
                  StrFormat("%.1f", rates.back())});
  };
  row("cold", cold);
  row("warm", warm);
  table.Print();
  std::printf("warm/cold: %.1fx; warm output-memo hits: %zu of %d\n",
              warm_median / cold_median, warm_output_hits,
              kReps * SyntheticRepo::kEntries);

  Json out = Json::MakeObject();
  out.Set("bench", Json("csl_compile"));
  out.Set("nproc",
          Json(static_cast<int64_t>(std::thread::hardware_concurrency())));
  out.Set("compiler", Json(__VERSION__));
  out.Set("entries", Json(static_cast<int64_t>(SyntheticRepo::kEntries)));
  out.Set("csl_files", Json(static_cast<int64_t>(repo.paths.size())));
  out.Set("configs_per_sweep", Json(static_cast<int64_t>(cold_configs)));
  out.Set("cold_entries_per_sec", Spread(cold));
  out.Set("warm_entries_per_sec", Spread(warm));
  out.Set("warm_over_cold", Json(warm_median / cold_median));
  out.Set("warm_output_hits", Json(static_cast<int64_t>(warm_output_hits)));
  out.Set("lifetime_parse_misses",
          Json(static_cast<int64_t>(cache.misses())));
  std::ofstream file("BENCH_csl_compile.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_csl_compile.json\n");
  return 0;
}
