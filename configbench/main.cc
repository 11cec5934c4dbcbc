// configerator_bench: the repository's end-to-end benchmark.
//
//   configerator_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--ops N] [--trace-out FILE] [--perturb]
//   configerator_bench --smoke
//
// Workloads: author_value, author_noop, fanout, serving (see README.md).
//
// --trace 0 sets the workload up three or more times (setup_s is the
// median), then measures it for S seconds — or exactly N ops with --ops —
// and prints the end-to-end metrics. --trace 1 runs the workload twice from
// fresh set-ups: untraced for S/2 seconds, then traced for the same number
// of ops, with a span around every call into a layer. It prints the
// per-layer metrics, checks that both runs produced the same digest, and
// reports the tracing overhead; --trace-out writes the spans as Chrome
// trace-event JSON.
// --perturb makes one oracle expectation wrong, so the run must fail.
// --smoke runs every workload at a small size, traced and untraced, and
// then perturbed; it exits 0 only if every check behaves as designed.
//
// The last line of stdout is the JSON result (report.h). The exit code is
// 0 when every oracle check passed, 1 when one failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "configbench/report.h"
#include "configbench/spans.h"
#include "configbench/workload.h"
#include "src/util/strings.h"

namespace configbench {
namespace {

using configerator::StrFormat;

// setup_s is the median of at least kMinSetups set-ups, and of more (up to
// kMaxSetups) when set-up is quick, until they add up to kSetupSeconds: a
// quick set-up timed only a few times reads whatever slow spell the shared
// host was in at that moment.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kSetupSeconds = 5.0;

const char* const kWorkloads[] = {"author_value", "author_noop", "fanout",
                                  "serving"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "author_value") {
    return MakeAuthoringWorkload(config, /*noop=*/false);
  }
  if (name == "author_noop") {
    return MakeAuthoringWorkload(config, /*noop=*/true);
  }
  if (name == "fanout") {
    return MakeFanoutWorkload(config);
  }
  if (name == "serving") {
    return MakeServingWorkload(config);
  }
  return nullptr;
}

// ops_per_s is the median op rate over consecutive windows of at least this
// long, so a slow spell on a shared host moves it only if it covers most of
// the measured phase.
constexpr double kWindowSeconds = 0.5;

// Runs ops for `seconds`, or exactly `ops` of them when ops > 0, and records
// the op rate of each window. Returns the number of ops run.
int64_t Measure(Workload* workload, Stats* stats, double seconds, int64_t ops) {
  workload->BeginMeasure(stats);
  const Clock::time_point start = Clock::now();
  Clock::time_point window_start = start;
  uint64_t window_ops = 0;
  int64_t runs = 0;
  while (ops > 0 ? runs < ops : SecondsSince(start) < seconds) {
    ++runs;
    if (!workload->RunOp(stats)) {
      break;
    }
    const Clock::time_point now = Clock::now();
    const double window =
        std::chrono::duration<double>(now - window_start).count();
    if (window >= kWindowSeconds) {
      const uint64_t done = workload->OpsDone(*stats);
      stats->window_ops_per_s.Add(static_cast<double>(done - window_ops) /
                                  window);
      window_start = now;
      window_ops = done;
    }
  }
  if (stats->window_ops_per_s.empty()) {  // Shorter than one window.
    stats->window_ops_per_s.Add(
        static_cast<double>(workload->OpsDone(*stats)) / SecondsSince(start));
  }
  workload->EndMeasure(stats);
  return runs;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void AddFailures(const Stats& stats, Report* report) {
  for (const std::string& error : stats.errors) {
    report->Fail(error);
  }
}

// --trace 0: set-up time, then the end-to-end metrics of one measured phase.
void RunEndToEnd(const std::string& name, const WorkloadConfig& config,
                 double seconds, int64_t ops, Report* report) {
  std::vector<double> setup_s;
  double setup_total = 0;
  std::unique_ptr<Workload> workload;
  Stats setup_stats;
  while (setup_stats.failed == 0 && setup_s.size() < kMaxSetups &&
         (setup_s.size() < kMinSetups || setup_total < kSetupSeconds)) {
    workload.reset();  // Tear the last world down before timing the next.
    Clock::time_point start = Clock::now();
    workload = MakeWorkload(name, config);
    workload->Setup(&setup_stats);
    setup_s.push_back(SecondsSince(start));
    setup_total += setup_s.back();
  }
  // Read before the measured phase: the tracer keeps every commit's spans,
  // so memory at the end would grow with the number of ops a faster build
  // completes in the fixed run time.
  const double peak_rss_mb = PeakRssMb();
  Stats stats;
  if (setup_stats.failed == 0) {
    Measure(workload.get(), &stats, seconds, ops);
  }
  std::sort(setup_s.begin(), setup_s.end());

  report->Add("setup_s", "s", setup_s[setup_s.size() / 2]);
  report->Add("ops_per_s", "1/s", stats.window_ops_per_s.Percentile(50));
  report->Add("op_latency_ms_p50", "ms", stats.op_ms.Percentile(50));
  report->Add("author_wait_ms_p50", "ms", stats.author_wait_ms.Percentile(50));
  report->Add("config_read_ns_p50", "ns", stats.read_ns.Percentile(50));
  report->Add("peak_rss_mb", "MB", peak_rss_mb);
  report->SetOps(setup_stats.attempted + stats.attempted,
                 setup_stats.failed + stats.failed);
  AddFailures(setup_stats, report);
  AddFailures(stats, report);
}

// --trace 1: an untraced and a traced phase of equal length; per-layer
// metrics from the traced one.
void RunTraced(const std::string& name, const WorkloadConfig& config,
               double seconds, int64_t ops, const std::string& trace_out,
               Report* report) {
  Stats plain;
  int64_t runs = 0;
  {
    std::unique_ptr<Workload> workload = MakeWorkload(name, config);
    workload->Setup(&plain);
    if (plain.failed == 0) {
      runs = Measure(workload.get(), &plain, seconds / 2, ops);
    }
  }
  Stats traced;
  SpanRecorder spans;
  if (plain.failed == 0) {
    std::unique_ptr<Workload> workload = MakeWorkload(name, config);
    workload->Setup(&traced);
    if (traced.failed == 0) {
      workload->EnableTracing(&spans);
      Measure(workload.get(), &traced, 0, runs);
    }
  }
  if (plain.failed == 0 && traced.failed == 0 &&
      plain.digest != traced.digest) {
    report->Fail(StrFormat("traced run digest %016llx differs from untraced "
                           "%016llx",
                           static_cast<unsigned long long>(traced.digest),
                           static_cast<unsigned long long>(plain.digest)));
  }
  if (!trace_out.empty() && !spans.WriteChromeTrace(trace_out)) {
    report->Fail("cannot write " + trace_out);
  }

  const std::map<std::string, double> self = spans.SelfSecondsByName();
  auto self_s = [&self](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  const double commits = std::max<double>(1, static_cast<double>(traced.commits));
  auto per_commit = [commits](double x) { return x / commits; };
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };

  for (const char* span :
       {"lang.compile", "lang.ci_compile", "pipeline.validate", "analysis.lint",
        "analysis.semdiff", "analysis.closure", "analysis.invariants",
        "analysis.symbols", "pipeline.diff", "pipeline.risk", "pipeline.review",
        "vcs.land", "pipeline.deps_refresh", "canary.sim_run",
        "sim.fleet_run"}) {
    report->Add(std::string(span) + "_ms", "ms", per_commit(self_s(span)) * 1e3);
  }
  report->Add("lang.unit_cache_hit_ratio", "ratio",
              ratio(traced.unit_hits, traced.unit_hits + traced.unit_misses));
  report->Add("lang.output_cache_hit_ratio", "ratio",
              ratio(traced.output_hits,
                    traced.output_hits + traced.output_misses));
  report->Add("analysis.reanalyzed_entries", "count",
              per_commit(static_cast<double>(traced.reanalyzed)));
  report->Add("analysis.pruned_dependents", "count",
              per_commit(static_cast<double>(traced.pruned)));
  report->Add("analysis.noop_certified_ratio", "ratio",
              ratio(traced.noop_certified, traced.commits));
  report->Add("analysis.invariants_checked", "count",
              per_commit(static_cast<double>(traced.invariants_checked)));
  double sim_s = self_s("canary.sim_run") + self_s("sim.fleet_run");
  report->Add("sim.events_per_s", "1/s",
              sim_s > 0 ? static_cast<double>(traced.sim_events) / sim_s : 0);
  report->Add("sim.events_per_commit", "count",
              per_commit(static_cast<double>(traced.sim_events)));
  report->Add("net.messages_per_commit", "count",
              per_commit(static_cast<double>(traced.messages)));
  report->Add("net.bytes_per_commit", "B",
              per_commit(static_cast<double>(traced.bytes)));
  report->Add("zeus.zxids_per_commit", "count",
              per_commit(static_cast<double>(traced.zxids)));
  report->Add("distribution.proxy_updates", "count",
              per_commit(static_cast<double>(traced.proxy_updates)));
  report->Add("distribution.fleet_updates", "count",
              per_commit(static_cast<double>(traced.fleet_updates)));
  report->Add("pipeline.save_to_fleet_sim_s_p50", "sim_s",
              traced.save_to_fleet_sim_s.Percentile(50));
  report->Add("distribution.land_to_fleet_sim_s_p50", "sim_s",
              traced.land_to_fleet_sim_s.Percentile(50));
  report->Add("distribution.land_to_fleet_sim_s_p99", "sim_s",
              traced.land_to_fleet_sim_s.Percentile(99));
  report->Add("distribution.app_callback_us", "us",
              per_commit(self_s("distribution.app_callback")) * 1e6);
  report->Add("distribution.read_ns", "ns",
              traced.reads == 0 ? 0
                                : traced.read_seconds * 1e9 /
                                      static_cast<double>(traced.reads));
  report->Add("gatekeeper.apply_us", "us",
              per_commit(self_s("gatekeeper.apply")) * 1e6);
  report->Add("gatekeeper.rebuild_us", "us",
              per_commit(self_s("gatekeeper.rebuild")) * 1e6);
  report->Add("gatekeeper.snapshot_swaps", "count",
              per_commit(static_cast<double>(traced.snapshot_swaps)));
  report->Add("obs.traces", "count", static_cast<double>(traced.traces));
  report->Add("obs.spans", "count", static_cast<double>(traced.spans));
  double roots = spans.RootSeconds();
  report->Add("trace.root_self_pct", "%",
              roots > 0 ? 100.0 * spans.RootSelfSeconds() / roots : 0);
  double plain_per_commit =
      plain.commits == 0 ? 0 : plain.commit_seconds / static_cast<double>(plain.commits);
  double traced_per_commit = per_commit(traced.commit_seconds);
  report->Add("trace.overhead_pct", "%",
              plain_per_commit > 0
                  ? 100.0 * (traced_per_commit / plain_per_commit - 1)
                  : 0);
  report->Add("serving.generator_late_ms_p99", "ms",
              traced.generator_late_ms.Percentile(99));

  report->SetOps(plain.attempted + traced.attempted,
                 plain.failed + traced.failed);
  AddFailures(plain, report);
  AddFailures(traced, report);
}

// Every workload at smoke size: a traced and an untraced run of the same ops
// must agree and pass every oracle, and a perturbed run must fail.
int RunSmoke() {
  constexpr int64_t kOps = 5;
  bool all_ok = true;
  for (const char* name : kWorkloads) {
    Clock::time_point start = Clock::now();
    WorkloadConfig config;
    config.smoke = true;
    Stats runs[2];
    SpanRecorder spans;
    for (int traced = 0; traced < 2; ++traced) {
      std::unique_ptr<Workload> workload = MakeWorkload(name, config);
      workload->Setup(&runs[traced]);
      if (traced == 1) {
        workload->EnableTracing(&spans);
      }
      Measure(workload.get(), &runs[traced], 0, kOps);
    }
    config.perturb = true;
    Stats perturbed;
    {
      std::unique_ptr<Workload> workload = MakeWorkload(name, config);
      workload->Setup(&perturbed);
      Measure(workload.get(), &perturbed, 0, kOps);
    }
    bool ok = runs[0].failed == 0 && runs[1].failed == 0 &&
              runs[0].commits == kOps && runs[0].digest == runs[1].digest &&
              perturbed.failed > 0;
    std::printf("bench_smoke %-13s %s  %4.1f s  digest %016llx/%016llx  "
                "failures %llu/%llu  perturbed failures %llu\n",
                name, ok ? "ok  " : "FAIL", SecondsSince(start),
                static_cast<unsigned long long>(runs[0].digest),
                static_cast<unsigned long long>(runs[1].digest),
                static_cast<unsigned long long>(runs[0].failed),
                static_cast<unsigned long long>(runs[1].failed),
                static_cast<unsigned long long>(perturbed.failed));
    for (const Stats& stats : runs) {
      for (const std::string& error : stats.errors) {
        std::printf("  %s\n", error.c_str());
      }
    }
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "configerator_bench: %s\n"
               "usage: configerator_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--ops N] [--trace-out FILE] [--perturb]\n"
               "       configerator_bench --smoke\n",
               error.c_str());
  return 2;
}

// A whole number, without sign.
bool ParseWhole(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool perturb = false;
  std::map<std::string, std::string> args = {
      {"seconds", "10"}, {"trace", "0"}, {"ops", "0"}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--perturb") {
      (arg == "--smoke" ? smoke : perturb) = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace" && key != "--ops" && key != "--trace-out") {
      return Usage("unknown argument " + arg);
    }
    if (eq == std::string::npos && i + 1 == argc) {
      return Usage("missing value for " + key);
    }
    args[key.substr(2)] = eq == std::string::npos ? argv[++i] : arg.substr(eq + 1);
  }
  if (smoke) {
    return RunSmoke();
  }

  const std::string& name = args["workload"];
  WorkloadConfig config;
  config.perturb = perturb;
  uint64_t ops = 0;
  if (!ParseWhole(args["seed"], &config.seed)) {
    return Usage("--seed must be a whole number");
  }
  if (!ParseWhole(args["ops"], &ops) || ops > 1'000'000'000) {
    return Usage("--ops must be a whole number");
  }
  char* end = nullptr;
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (args["seconds"].empty() || *end != '\0' || !(seconds > 0) ||
      seconds > 3600) {
    return Usage("--seconds must be a number in (0, 3600]");
  }
  const std::string& trace = args["trace"];
  if (trace != "0" && trace != "1") {
    return Usage("--trace must be 0 or 1");
  }
  if (MakeWorkload(name, config) == nullptr) {
    return Usage("unknown workload '" + name + "'");
  }

  Report report(name, config.seed, trace == "1");
  if (trace == "1") {
    RunTraced(name, config, seconds, static_cast<int64_t>(ops),
              args["trace-out"], &report);
  } else {
    RunEndToEnd(name, config, seconds, static_cast<int64_t>(ops), &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace configbench

int main(int argc, char** argv) { return configbench::Main(argc, argv); }
