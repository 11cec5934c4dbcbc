// Figure 14 at fleet scale: commit-to-fleet propagation latency with 1k, 10k,
// and 100k subscribed servers, the push-vs-pull ablation re-run at each size,
// and the million-device MobileConfig fleet modeled as cohorts. This is the
// scaling companion to fig14_propagation_latency (which runs the full
// landing-strip pipeline at small scale over a simulated week): here the
// commit source writes directly to Zeus and the fleet is a ProxyFleet — two
// dense arrays per key instead of a ConfigProxy object per server — so the
// bench measures the distribution tree itself at the paper's sizes.
//
// Emits BENCH_fig14_scale.json:
//   * per-scale propagation percentiles (p50/p90/p99/p999) over every
//     (commit, server) delivery,
//   * scheduler throughput (events/sec) at each size — the calendar queue's
//     near-linearity claim is the 100k:10k ratio,
//   * push-vs-pull message/byte totals and staleness at each size,
//   * the 1M-device cohort model: polls/sec, update-delay quantiles, push
//     vs pull freshness, and bandwidth estimated from a sampled fleet
//     running the real sync protocol.
//
// Each scale's push leg runs kReps times. The simulated results (every
// propagation sample, messages, bytes, events, links, traces) must repeat
// exactly, or the bench fails; wall time and ns per simulated event are
// reported as the median, min and max over the repetitions. The JSON
// records nproc, compiler, build type and git sha beside them.
//
// --smoke runs only the 10k push leg once and writes nothing (the scale
// lane uses it as a fast end-to-end probe).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/distribution/fleet.h"
#include "src/distribution/pull.h"
#include "src/gatekeeper/runtime.h"
#include "src/json/json.h"
#include "src/mobile/cohort.h"
#include "src/mobile/mobileconfig.h"
#include "src/obs/observability.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/zeus/zeus.h"

using namespace configerator;

namespace {

constexpr int kKeys = 4;
constexpr int kCommits = 20;
constexpr SimTime kCommitSpacing = 10 * kSimSecond;
constexpr SimTime kFirstCommit = 20 * kSimSecond;
constexpr SimTime kPullInterval = 60 * kSimSecond;
constexpr int kReps = 5;

struct ScaleShape {
  const char* label;
  int regions;
  int clusters_per_region;
  int servers_per_cluster;
};

// Fleet servers are every host in layers [2, spc-1): layer 0 holds ensemble
// members, layer 1 the writer and the pull service, the top layer one
// observer per cluster.
constexpr ScaleShape kScales[] = {
    {"1k", 2, 4, 125},     // 8 clusters x 122 = 976 fleet servers.
    {"10k", 2, 8, 625},    // 16 clusters x 622 = 9952.
    {"100k", 2, 16, 3125}, // 32 clusters x 3122 = 99904.
};

struct PushResult {
  size_t servers = 0;
  size_t observers = 0;
  SampleSet latency;  // Seconds, one sample per (commit, server) delivery.
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t sim_events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  size_t traces_recorded = 0;
  uint64_t traces_sampled_out = 0;
  size_t materialized_links = 0;

  // True if every simulated result matches `other`'s (wall time aside).
  bool SameSimulation(const PushResult& other) const {
    return servers == other.servers && observers == other.observers &&
           latency.samples() == other.latency.samples() &&
           messages == other.messages && bytes == other.bytes &&
           sim_events == other.sim_events &&
           traces_recorded == other.traces_recorded &&
           traces_sampled_out == other.traces_sampled_out &&
           materialized_links == other.materialized_links;
  }
};

// Median, min and max over repetitions.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;

  static Spread Of(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return Spread{values[values.size() / 2], values.front(), values.back()};
  }
  Json ToJson(const char* unit) const {
    Json json = Json::MakeObject();
    json.Set("median", Json(median));
    json.Set("min", Json(min));
    json.Set("max", Json(max));
    json.Set("reps", Json(static_cast<int64_t>(kReps)));
    json.Set("unit", Json(std::string(unit)));
    return json;
  }
};

struct PullResult {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  SampleSet staleness;  // Seconds, publish -> client sees it.
};

std::vector<ServerId> FleetHosts(const ScaleShape& shape) {
  std::vector<ServerId> hosts;
  for (int r = 0; r < shape.regions; ++r) {
    for (int c = 0; c < shape.clusters_per_region; ++c) {
      for (int s = 2; s + 1 < shape.servers_per_cluster; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  return hosts;
}

std::string KeyName(int k) { return StrFormat("conf/scale%02d.json", k); }

PushResult RunPush(const ScaleShape& shape) {
  Simulator sim;
  Network net(&sim, Topology(shape.regions, shape.clusters_per_region,
                             shape.servers_per_cluster),
              /*seed=*/14);
  std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                   ServerId{0, 1, 0}, ServerId{1, 1, 0},
                                   ServerId{0, 2, 0}};
  std::vector<ServerId> observers;
  for (int r = 0; r < shape.regions; ++r) {
    for (int c = 0; c < shape.clusters_per_region; ++c) {
      observers.push_back(ServerId{r, c, shape.servers_per_cluster - 1});
    }
  }
  ZeusEnsemble::Options zeus_options;
  zeus_options.processing_delay = 100 * kSimMillisecond;
  ZeusEnsemble zeus(&net, members, observers, zeus_options);

  // At fleet scale the tracer samples: 1 of every 8 commits records its span
  // tree; the rest no-op end to end. Memory stays bounded by the sample
  // rate, not the fan-out.
  Observability obs;
  obs.tracer.SetSampleEvery(8);
  zeus.AttachObservability(&obs);

  PushResult result;
  ProxyFleet fleet(&net, &zeus, FleetHosts(shape), /*seed=*/7);
  result.servers = fleet.size();
  result.observers = observers.size();

  std::map<std::string, SimTime> published_at;
  fleet.set_update_hook(
      [&](size_t, size_t, const ZeusTxn& txn) {
        auto it = published_at.find(txn.value);
        if (it != published_at.end()) {
          result.latency.Add(SimToSeconds(sim.now() - it->second));
        }
      });
  for (int k = 0; k < kKeys; ++k) {
    fleet.SubscribeAll(KeyName(k), /*spread=*/10 * kSimSecond);
  }

  ServerId writer{0, 0, 1};
  for (int i = 0; i < kCommits; ++i) {
    SimTime when = kFirstCommit + i * kCommitSpacing;
    sim.ScheduleAt(when, [&, i, when] {
      std::string payload = StrFormat("scale-payload-%03d", i);
      published_at[payload] = when;
      TraceContext root = obs.tracer.StartTrace(
          StrFormat("scale-commit %d", i), "0.0.1", when);
      zeus.Write(writer, KeyName(i % kKeys), payload,
                 [&, root](Result<int64_t> zxid) {
                   if (zxid.ok() && root.valid()) {
                     obs.tracer.BindZxid(*zxid, root);
                     obs.tracer.EndSpan(root, sim.now());
                   }
                 });
    });
  }

  SimTime horizon = kFirstCommit + kCommits * kCommitSpacing + kSimMinute;
  auto wall_start = std::chrono::steady_clock::now();
  sim.RunUntil(horizon);
  auto wall_end = std::chrono::steady_clock::now();

  result.messages = net.messages_sent();
  result.bytes = net.bytes_sent();
  result.sim_events = sim.processed_events();
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.events_per_sec =
      result.wall_s > 0 ? static_cast<double>(result.sim_events) / result.wall_s
                        : 0;
  result.traces_recorded = obs.tracer.trace_count();
  result.traces_sampled_out = obs.tracer.sampled_out();
  result.materialized_links = net.materialized_links();
  return result;
}

PullResult RunPull(const ScaleShape& shape) {
  Simulator sim;
  Network net(&sim, Topology(shape.regions, shape.clusters_per_region,
                             shape.servers_per_cluster),
              /*seed=*/15);
  PullService service(&net, ServerId{1, 0, 1});
  for (int k = 0; k < kKeys; ++k) {
    service.Publish(KeyName(k), "initial");
  }

  PullResult result;
  std::map<std::string, SimTime> published_at;
  std::vector<ServerId> hosts = FleetHosts(shape);
  std::vector<std::unique_ptr<PullClient>> clients;
  clients.reserve(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    clients.push_back(std::make_unique<PullClient>(&net, &service, hosts[i],
                                                   kPullInterval));
    for (int k = 0; k < kKeys; ++k) {
      clients.back()->Track(
          KeyName(k),
          [&](const std::string&, const std::string& value, int64_t) {
            auto it = published_at.find(value);
            if (it != published_at.end()) {
              result.staleness.Add(SimToSeconds(sim.now() - it->second));
            }
          });
    }
    clients.back()->Start(/*initial_stagger=*/static_cast<SimTime>(
        (i * static_cast<size_t>(kPullInterval)) / hosts.size()));
  }

  for (int k = 0; k < kKeys; ++k) {
    SimTime when = (k + 1) * kSimMinute;
    sim.ScheduleAt(when, [&, k, when] {
      std::string payload = StrFormat("pull-payload-%02d", k);
      published_at[payload] = when;
      service.Publish(KeyName(k), payload);
    });
  }
  sim.RunUntil((kKeys + 2) * kSimMinute + 30 * kSimSecond);

  result.messages = net.messages_sent();
  result.bytes = net.bytes_sent();
  for (const auto& client : clients) {
    result.polls += client->polls_sent();
    result.empty_polls += client->empty_polls();
  }
  return result;
}

Json HistJson(const SampleSet& samples) {
  Json json = Json::MakeObject();
  json.Set("count", Json(static_cast<int64_t>(samples.size())));
  if (!samples.empty()) {
    json.Set("mean", Json(samples.Mean()));
    json.Set("p50", Json(samples.Percentile(50)));
    json.Set("p90", Json(samples.Percentile(90)));
    json.Set("p99", Json(samples.Percentile(99)));
    json.Set("p999", Json(samples.Percentile(99.9)));
    json.Set("max", Json(samples.Percentile(100)));
  }
  return json;
}

std::vector<CohortSpec> MillionDeviceFleet() {
  return {
      {"wifi-15m", 250'000, 15 * kSimMinute, 0.95, 0.9},
      {"hourly", 600'000, kSimHour, 0.8, 0.6},
      {"long-tail", 150'000, 4 * kSimHour, 0.5, 0.2},
  };
}

// Bandwidth ground truth for the cohort row: a sampled fleet running the real
// MobileConfig sync protocol yields bytes per poll; the closed-form poll rate
// scales it to the full million devices.
double MeasureBytesPerSync(const CohortModel& model) {
  TranslationLayer translation;
  translation.Bind("FLEET_CONFIG", "FEATURE_X",
                   FieldBinding::Constant(Json(true)));
  translation.Bind("FLEET_CONFIG", "POLL_BUDGET",
                   FieldBinding::Constant(Json(int64_t{7})));
  GatekeeperRuntime gatekeeper;
  MobileConfigServer server(&translation, &gatekeeper, nullptr);
  MobileSchema schema;
  schema.config_name = "FLEET_CONFIG";
  schema.fields = {{"FEATURE_X", MobileFieldType::kBool},
                   {"POLL_BUDGET", MobileFieldType::kInt}};
  server.RegisterSchema(schema);

  Simulator sim;
  SampledMobileFleet fleet(&sim, &server, schema, model, /*sample_size=*/2000,
                           /*seed=*/21);
  fleet.Start();
  sim.RunUntil(8 * kSimHour);
  return fleet.sync_count() == 0
             ? 0
             : static_cast<double>(fleet.total_sync_bytes()) /
                   static_cast<double>(fleet.sync_count());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  if (smoke) {
    PrintBenchHeader("Figure 14 scaling smoke (10k servers)",
                     "Push leg only; no JSON output");
    PushResult push = RunPush(kScales[1]);
    std::printf("servers=%zu deliveries=%zu p50=%.2fs p999=%.2fs "
                "events=%llu (%.0f events/s)\n",
                push.servers, push.latency.size(), push.latency.Percentile(50),
                push.latency.Percentile(99.9),
                static_cast<unsigned long long>(push.sim_events),
                push.events_per_sec);
    size_t expected = push.servers * static_cast<size_t>(kCommits);
    if (push.latency.size() != expected) {
      std::printf("FAIL: expected %zu deliveries\n", expected);
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }

  PrintBenchHeader("Figure 14 at scale — 1k/10k/100k-server propagation",
                   "Calendar-queue scheduler + SoA fleet; push vs pull at "
                   "each size; 1M-device cohort model");

  Json scales_json = Json::MakeArray();
  TextTable table({"scale", "servers", "p50 (s)", "p90 (s)", "p99 (s)",
                   "p999 (s)", "events/s", "ns/event (min-max)", "push msgs",
                   "pull msgs"});
  double events_per_sec_10k = 0;
  double events_per_sec_100k = 0;

  for (const ScaleShape& shape : kScales) {
    PushResult push = RunPush(shape);
    std::vector<double> wall_s = {push.wall_s};
    for (int rep = 1; rep < kReps; ++rep) {
      PushResult again = RunPush(shape);
      if (!again.SameSimulation(push)) {
        std::fprintf(stderr, "FATAL: %s push leg repetition %d simulated "
                     "differently\n", shape.label, rep);
        return 1;
      }
      wall_s.push_back(again.wall_s);
    }
    std::vector<double> ns_per_event;
    for (double wall : wall_s) {
      ns_per_event.push_back(wall * 1e9 / static_cast<double>(push.sim_events));
    }
    Spread wall = Spread::Of(wall_s);
    Spread ns = Spread::Of(ns_per_event);
    push.wall_s = wall.median;
    push.events_per_sec = static_cast<double>(push.sim_events) / wall.median;
    PullResult pull = RunPull(shape);
    if (std::strcmp(shape.label, "10k") == 0) {
      events_per_sec_10k = push.events_per_sec;
    } else if (std::strcmp(shape.label, "100k") == 0) {
      events_per_sec_100k = push.events_per_sec;
    }

    table.AddRow({shape.label, StrFormat("%zu", push.servers),
                  StrFormat("%.2f", push.latency.Percentile(50)),
                  StrFormat("%.2f", push.latency.Percentile(90)),
                  StrFormat("%.2f", push.latency.Percentile(99)),
                  StrFormat("%.2f", push.latency.Percentile(99.9)),
                  StrFormat("%.2e", push.events_per_sec),
                  StrFormat("%.0f (%.0f-%.0f)", ns.median, ns.min, ns.max),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(push.messages)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(pull.messages))});

    Json entry = Json::MakeObject();
    entry.Set("scale", Json(std::string(shape.label)));
    entry.Set("servers", Json(static_cast<int64_t>(push.servers)));
    entry.Set("observers", Json(static_cast<int64_t>(push.observers)));
    entry.Set("keys", Json(static_cast<int64_t>(kKeys)));
    entry.Set("commits", Json(static_cast<int64_t>(kCommits)));
    Json push_json = Json::MakeObject();
    push_json.Set("propagation_s", HistJson(push.latency));
    push_json.Set("messages", Json(static_cast<int64_t>(push.messages)));
    push_json.Set("bytes", Json(static_cast<int64_t>(push.bytes)));
    push_json.Set("sim_events", Json(static_cast<int64_t>(push.sim_events)));
    push_json.Set("wall_s", wall.ToJson("s"));
    push_json.Set("ns_per_event", ns.ToJson("ns"));
    push_json.Set("events_per_sec", Json(push.events_per_sec));
    push_json.Set("traces_recorded",
                  Json(static_cast<int64_t>(push.traces_recorded)));
    push_json.Set("traces_sampled_out",
                  Json(static_cast<int64_t>(push.traces_sampled_out)));
    push_json.Set("materialized_links",
                  Json(static_cast<int64_t>(push.materialized_links)));
    entry.Set("push", std::move(push_json));
    Json pull_json = Json::MakeObject();
    pull_json.Set("messages", Json(static_cast<int64_t>(pull.messages)));
    pull_json.Set("bytes", Json(static_cast<int64_t>(pull.bytes)));
    pull_json.Set("polls", Json(static_cast<int64_t>(pull.polls)));
    pull_json.Set("empty_polls",
                  Json(static_cast<int64_t>(pull.empty_polls)));
    pull_json.Set("staleness_s", HistJson(pull.staleness));
    entry.Set("pull", std::move(pull_json));
    scales_json.Append(std::move(entry));
  }
  table.Print();

  std::printf("\nthroughput linearity: 10k %.2e events/s, 100k %.2e events/s "
              "(%.2fx per-event cost at 10x the fleet)\n",
              events_per_sec_10k, events_per_sec_100k,
              events_per_sec_10k > 0 ? events_per_sec_10k / events_per_sec_100k
                                     : 0);

  // --- Mobile fleet: 1M devices as cohorts ---------------------------------
  CohortModel model(MillionDeviceFleet());
  double bytes_per_sync = MeasureBytesPerSync(model);
  double polls_per_sec = model.PollsPerSecond();
  std::printf("\nmobile fleet (%llu devices in %zu cohorts): %.0f polls/s, "
              "%.0f B/sync (~%.1f KB/s fleet-wide), mean update delay %.0fs, "
              "1h freshness %.3f pull / %.3f with push\n",
              static_cast<unsigned long long>(model.total_devices()),
              model.cohorts().size(), polls_per_sec, bytes_per_sync,
              polls_per_sec * bytes_per_sync / 1024.0,
              SimToSeconds(model.MeanUpdateDelay()),
              model.UpdatedFraction(kSimHour),
              model.UpdatedFractionWithPush(kSimHour));

  Json out = Json::MakeObject();
  out.Set("bench", Json(std::string("fig14_scale")));
  out.Set("git_sha", Json(std::string(CFG_GIT_SHA)));
  out.Set("build_type", Json(std::string(CFG_BUILD_TYPE)));
  out.Set("nproc",
          Json(static_cast<int64_t>(std::thread::hardware_concurrency())));
  out.Set("compiler", Json(std::string(__VERSION__)));
  out.Set("scales", std::move(scales_json));
  Json linearity = Json::MakeObject();
  linearity.Set("events_per_sec_10k", Json(events_per_sec_10k));
  linearity.Set("events_per_sec_100k", Json(events_per_sec_100k));
  linearity.Set("slowdown_at_10x_fleet",
                Json(events_per_sec_100k > 0
                         ? events_per_sec_10k / events_per_sec_100k
                         : 0));
  out.Set("throughput_linearity", std::move(linearity));
  Json mobile = Json::MakeObject();
  mobile.Set("devices", Json(static_cast<int64_t>(model.total_devices())));
  Json cohorts = Json::MakeArray();
  for (const CohortSpec& spec : model.cohorts()) {
    Json c = Json::MakeObject();
    c.Set("name", Json(spec.name));
    c.Set("devices", Json(static_cast<int64_t>(spec.devices)));
    c.Set("poll_interval_s", Json(SimToSeconds(spec.poll_interval)));
    c.Set("online_prob", Json(spec.online_prob));
    c.Set("push_reach", Json(spec.push_reach));
    cohorts.Append(std::move(c));
  }
  mobile.Set("cohorts", std::move(cohorts));
  mobile.Set("polls_per_sec", Json(polls_per_sec));
  mobile.Set("bytes_per_sync", Json(bytes_per_sync));
  mobile.Set("fleet_bandwidth_bytes_per_sec",
             Json(polls_per_sec * bytes_per_sync));
  mobile.Set("mean_update_delay_s", Json(SimToSeconds(model.MeanUpdateDelay())));
  mobile.Set("update_delay_p50_s", Json(SimToSeconds(model.Quantile(0.5))));
  mobile.Set("update_delay_p99_s", Json(SimToSeconds(model.Quantile(0.99))));
  mobile.Set("updated_frac_1h_pull", Json(model.UpdatedFraction(kSimHour)));
  mobile.Set("updated_frac_1h_push",
             Json(model.UpdatedFractionWithPush(kSimHour)));
  out.Set("mobile_cohorts", std::move(mobile));

  std::ofstream file("BENCH_fig14_scale.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_fig14_scale.json\n");
  return 0;
}
