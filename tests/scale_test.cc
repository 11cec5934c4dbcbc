// Determinism-at-scale regression battery. The DST harness's core guarantee —
// replaying a run's trace reproduces it bit-for-bit — must survive the scale
// machinery: the calendar-queue scheduler, lazy per-link stats, the dense
// watch tables in Zeus, and the strided continuous-invariant sweep. These
// tests run full harness scenarios over 1k- and 10k-server topologies under
// randomized fault plans and assert that (a) the replayed trace is byte-equal
// to the original, (b) every outcome field (violation, commit point, message
// counts, event counts) matches, and (c) clean runs stay clean.
//
// The 10-seed sweeps at both sizes live behind the `scale` ctest
// configuration (see tests/CMakeLists.txt); a single-seed 1k smoke stays in
// tier-1 so every build exercises the path.

#include <gtest/gtest.h>

#include <string>

#include "src/dst/fault_plan.h"
#include "src/dst/harness.h"
#include "src/sim/time.h"

namespace configerator {
namespace {

// A scenario over regions × clusters × servers_per_cluster servers. Vessel
// and Gatekeeper stay off: the scale battery measures the propagation path,
// and the per-proxy swarm/runtime machinery multiplies runtime without adding
// scheduler coverage (dst_test owns that at small scale).
ScenarioOptions ScaleScenario(uint64_t seed, int servers_per_cluster,
                              int proxies, int check_stride) {
  ScenarioOptions options;
  options.seed = seed;
  options.regions = 2;
  options.clusters_per_region = 8;
  options.servers_per_cluster = servers_per_cluster;
  options.members = 5;
  options.proxies = proxies;
  options.keys = 3;
  options.writes = 10;
  options.chaos_duration = 30 * kSimSecond;
  options.settle = 30 * kSimSecond;
  options.enable_vessel = false;
  options.enable_gatekeeper = false;
  options.check_stride = check_stride;
  return options;
}

RunResult RunOnce(const ScenarioOptions& options) {
  Harness harness(options);
  FaultPlan plan =
      FaultPlan::Random(options.seed * 31 + 7, harness.shape());
  return harness.Run(plan);
}

// Runs the scenario, replays its trace, and asserts the replay is
// indistinguishable from the original run.
void CheckReplayDeterminism(const ScenarioOptions& options) {
  RunResult first = RunOnce(options);
  SCOPED_TRACE("seed " + std::to_string(options.seed) + " servers " +
               std::to_string(options.regions *
                              options.clusters_per_region *
                              options.servers_per_cluster));
  // Randomized plans here are transient faults only: a violation would be a
  // real bug, and the sweep exists to catch one.
  EXPECT_FALSE(first.violated)
      << first.violation.invariant << ": " << first.violation.message;

  Result<RunResult> replayed = Harness::Replay(first.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_EQ(first.trace, replayed->trace) << "trace replay is not bit-exact";
  EXPECT_EQ(first.violated, replayed->violated);
  EXPECT_EQ(first.violation.invariant, replayed->violation.invariant);
  EXPECT_EQ(first.violation.at, replayed->violation.at);
  EXPECT_EQ(first.committed_zxid, replayed->committed_zxid);
  EXPECT_EQ(first.published, replayed->published);
  EXPECT_EQ(first.sim_events, replayed->sim_events);
  EXPECT_EQ(first.net.messages_sent, replayed->net.messages_sent);
  EXPECT_EQ(first.net.delivered, replayed->net.delivered);
  EXPECT_EQ(first.net.dropped, replayed->net.dropped);
  EXPECT_EQ(first.net.bytes_sent, replayed->net.bytes_sent);
}

// Tier-1 smoke: one 1k-server run + replay per build keeps the scale path
// from regressing silently between sweep runs.
TEST(ScaleDeterminismTest, Replay1kSmoke) {
  // 2 × 8 × 64 = 1024 servers.
  CheckReplayDeterminism(ScaleScenario(/*seed=*/11, /*servers_per_cluster=*/64,
                                       /*proxies=*/64, /*check_stride=*/32));
}

// Full sweeps: 10 seeds each at 1k and 10k servers (scale configuration).
TEST(ScaleDeterminismTest, ScaleSweep1k) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    CheckReplayDeterminism(ScaleScenario(seed, /*servers_per_cluster=*/64,
                                         /*proxies=*/128,
                                         /*check_stride=*/64));
  }
}

TEST(ScaleDeterminismTest, ScaleSweep10k) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    // 2 × 8 × 640 = 10240 servers.
    CheckReplayDeterminism(ScaleScenario(seed, /*servers_per_cluster=*/640,
                                         /*proxies=*/128,
                                         /*check_stride=*/512));
  }
}

// The stride only thins the continuous sweep; it must not change what the
// harness computes. A strided run and a stride-1 run of the same scenario
// reach the same commit point, publish count, and (clean) outcome — the
// traces differ only in the recorded stride.
TEST(ScaleDeterminismTest, CheckStrideDoesNotChangeOutcome) {
  ScenarioOptions dense = ScaleScenario(/*seed=*/5, /*servers_per_cluster=*/16,
                                        /*proxies=*/16, /*check_stride=*/1);
  ScenarioOptions strided = dense;
  strided.check_stride = 128;

  RunResult a = RunOnce(dense);
  RunResult b = RunOnce(strided);
  EXPECT_FALSE(a.violated) << a.violation.message;
  EXPECT_FALSE(b.violated) << b.violation.message;
  EXPECT_EQ(a.committed_zxid, b.committed_zxid);
  EXPECT_EQ(a.published, b.published);
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent);
}

}  // namespace
}  // namespace configerator
