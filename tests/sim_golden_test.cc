// Golden digest of simulated behaviour. dst_test and scale_test compare a run
// with its own replay inside one binary, so a change that reorders events,
// shifts a delivery time or sends one message more passes them. This test
// pins the simulation itself: it folds into one SHA-256
//
//   * the DST trace and every outcome field (commit point, publishes, vessel
//     completions, every NetStats counter, simulator events) of the five
//     DstSmokeTest scenarios and of ScaleDeterminismTest.Replay1kSmoke's
//     scenario;
//   * a 1k-server ProxyFleet push leg in bench/fig14_scale's shape: every
//     applied (host, key, zxid) update with its simulated time, then the
//     NetStats, materialized links and processed events of the run.
//
// The constant was recorded from the simulator, network and Zeus as they
// were before deliveries moved into pooled event slots. A refactor of those
// layers must pass it unchanged; a mismatch means simulated behaviour moved,
// which is a finding to explain, not a constant to update. If a change is
// meant to alter simulated behaviour, run
//   build/tests/sim_golden_test
// and replace the constant with the digest the failure reports, naming the
// change in CHANGES.md.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/distribution/fleet.h"
#include "src/dst/fault_plan.h"
#include "src/dst/harness.h"
#include "src/obs/observability.h"
#include "src/sim/network.h"
#include "src/util/sha256.h"
#include "src/util/strings.h"
#include "src/zeus/zeus.h"

namespace configerator {
namespace {

constexpr char kGoldenDigest[] =
    "b5467b7fa42a6eb8e8e230a4daaf996a751004ca6cc8e60fad73eebca7da250f";

std::string NetLine(const NetStats& net) {
  return StrFormat(
      "sent=%llu delivered=%llu dropped=%llu delayed=%llu duplicated=%llu "
      "reordered=%llu bytes=%llu",
      static_cast<unsigned long long>(net.messages_sent),
      static_cast<unsigned long long>(net.delivered),
      static_cast<unsigned long long>(net.dropped),
      static_cast<unsigned long long>(net.delayed),
      static_cast<unsigned long long>(net.duplicated),
      static_cast<unsigned long long>(net.reordered),
      static_cast<unsigned long long>(net.bytes_sent));
}

// Length-prefixed, so record boundaries cannot shift between records.
void Fold(Sha256* digest, const std::string& record) {
  digest->Update(StrFormat("%zu:", record.size()));
  digest->Update(record);
}

void FoldRun(Sha256* digest, const RunResult& run) {
  Fold(digest, run.trace);
  Fold(digest,
       StrFormat("violated=%d zxid=%lld published=%llu vessel=%zu events=%llu ",
                 run.violated, static_cast<long long>(run.committed_zxid),
                 static_cast<unsigned long long>(run.published),
                 run.vessel_completed,
                 static_cast<unsigned long long>(run.sim_events)) +
           NetLine(run.net));
}

// dst_test's SmokeScenario, run the way DstSmokeTest runs it.
RunResult DstSmokeRun(uint64_t seed) {
  ScenarioOptions options;
  options.seed = seed;
  options.chaos_duration = 40 * kSimSecond;
  options.settle = 25 * kSimSecond;
  options.writes = 30;
  options.vessel_bytes = 8 << 20;
  Harness harness(options);
  return harness.Run(FaultPlan::Random(seed, harness.shape()));
}

// scale_test's Replay1kSmoke scenario: 2 x 8 x 64 servers, seed 11.
RunResult Scale1kRun() {
  ScenarioOptions options;
  options.seed = 11;
  options.regions = 2;
  options.clusters_per_region = 8;
  options.servers_per_cluster = 64;
  options.members = 5;
  options.observers = 8;
  options.proxies = 64;
  options.keys = 3;
  options.writes = 10;
  options.chaos_duration = 30 * kSimSecond;
  options.settle = 30 * kSimSecond;
  options.enable_vessel = false;
  options.enable_gatekeeper = false;
  options.check_stride = 32;
  Harness harness(options);
  return harness.Run(FaultPlan::Random(options.seed * 31 + 7, harness.shape()));
}

// bench/fig14_scale's push leg at its 1k shape: 2 x 4 x 125 servers, five
// members, one observer per cluster, a fleet on layers [2, 124), four keys
// and 20 commits ten seconds apart, with 1-in-8 trace sampling attached.
void FoldFleetPushLeg1k(Sha256* digest) {
  constexpr int kRegions = 2;
  constexpr int kClusters = 4;
  constexpr int kServers = 125;
  constexpr int kKeys = 4;
  constexpr int kCommits = 20;
  Simulator sim;
  Network net(&sim, Topology(kRegions, kClusters, kServers), /*seed=*/14);
  std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                   ServerId{0, 1, 0}, ServerId{1, 1, 0},
                                   ServerId{0, 2, 0}};
  std::vector<ServerId> observers;
  std::vector<ServerId> hosts;
  for (int r = 0; r < kRegions; ++r) {
    for (int c = 0; c < kClusters; ++c) {
      observers.push_back(ServerId{r, c, kServers - 1});
      for (int s = 2; s + 1 < kServers; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  ZeusEnsemble::Options zeus_options;
  zeus_options.processing_delay = 100 * kSimMillisecond;
  ZeusEnsemble zeus(&net, members, observers, zeus_options);
  Observability obs;
  obs.tracer.SetSampleEvery(8);
  zeus.AttachObservability(&obs);

  ProxyFleet fleet(&net, &zeus, hosts, /*seed=*/7);
  std::string updates;
  fleet.set_update_hook(
      [&](size_t host, size_t key, const ZeusTxn& txn) {
        updates += StrFormat("%zu %zu %lld %lld %s\n", host, key,
                             static_cast<long long>(txn.zxid),
                             static_cast<long long>(sim.now()),
                             txn.value.c_str());
      });
  auto key_name = [](int k) { return StrFormat("conf/scale%02d.json", k); };
  for (int k = 0; k < kKeys; ++k) {
    fleet.SubscribeAll(key_name(k), /*spread=*/10 * kSimSecond);
  }
  for (int i = 0; i < kCommits; ++i) {
    SimTime when = 20 * kSimSecond + i * 10 * kSimSecond;
    sim.ScheduleAt(when, [&, i, when] {
      TraceContext root = obs.tracer.StartTrace(
          StrFormat("scale-commit %d", i), "0.0.1", when);
      zeus.Write(ServerId{0, 0, 1}, key_name(i % kKeys),
                 StrFormat("scale-payload-%03d", i),
                 [&, root](Result<int64_t> zxid) {
                   if (zxid.ok() && root.valid()) {
                     obs.tracer.BindZxid(*zxid, root);
                     obs.tracer.EndSpan(root, sim.now());
                   }
                 });
    });
  }
  sim.RunUntil(20 * kSimSecond + kCommits * 10 * kSimSecond + kSimMinute);

  Fold(digest, updates);
  Fold(digest,
       StrFormat("links=%zu events=%llu updates=%llu ",
                 net.materialized_links(),
                 static_cast<unsigned long long>(sim.processed_events()),
                 static_cast<unsigned long long>(fleet.updates_received())) +
           NetLine(net.stats()));
}

TEST(SimGoldenTest, SimulatedBehaviourMatchesGoldenDigest) {
  std::vector<std::string> parts;
  for (uint64_t seed : {1, 2, 3, 5, 7}) {
    Sha256 part;
    FoldRun(&part, DstSmokeRun(seed));
    parts.push_back(StrFormat("dst-smoke-%llu ",
                              static_cast<unsigned long long>(seed)) +
                    part.Finish().ToHex());
  }
  {
    Sha256 part;
    FoldRun(&part, Scale1kRun());
    parts.push_back("scale-1k " + part.Finish().ToHex());
  }
  {
    Sha256 part;
    FoldFleetPushLeg1k(&part);
    parts.push_back("fleet-push-1k " + part.Finish().ToHex());
  }
  Sha256 digest;
  std::string listing;
  for (const std::string& part : parts) {
    Fold(&digest, part);
    listing += "\n  " + part;
  }
  // The per-part digests locate a mismatch: compare them with a run of the
  // recorded tree.
  EXPECT_EQ(digest.Finish().ToHex(), kGoldenDigest) << "parts:" << listing;
}

}  // namespace
}  // namespace configerator
