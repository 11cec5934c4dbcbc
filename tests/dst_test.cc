// Deterministic simulation testing (DST): network fault-model unit tests,
// fault-plan serialization, full-stack harness smoke runs, the wide chaos
// sweep (label: chaos), the seeded torn-config bug with trace shrinking and
// replay, PackageVessel churn, and the MobileConfig push-vs-pull race.
//
// This file supersedes the Zeus/proxy chaos scenario that used to live in
// fault_injection_test.cc: the DST harness runs the same fleet shape with a
// strictly richer fault model (partitions, link faults, disk corruption) and
// checks invariants continuously instead of only at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/dst/fault_plan.h"
#include "src/dst/harness.h"
#include "src/dst/shrink.h"
#include "src/mobile/mobileconfig.h"
#include "src/sim/network.h"

namespace configerator {
namespace {

// ---- Network fault model -----------------------------------------------------

class NetworkStatsTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Network net_{&sim_, Topology(2, 2, 4), 42};
  ServerId a_{0, 0, 0};
  ServerId b_{0, 0, 1};
  ServerId c_{1, 0, 0};
};

TEST_F(NetworkStatsTest, CountsDeliveriesAndDropsToDownServers) {
  int delivered = 0;
  net_.Send(a_, b_, 100, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_.stats().delivered, 1u);
  EXPECT_EQ(net_.stats().dropped, 0u);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, 1u);

  // A message to a down server is not silently ignored anymore: it shows up
  // in the per-link and aggregate drop counters.
  net_.failures().Crash(b_);
  net_.Send(a_, b_, 100, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_.stats().dropped, 1u);
  EXPECT_EQ(net_.link_stats(a_, b_).dropped, 1u);

  // Down *on arrival* also counts as a drop on that link.
  net_.failures().Recover(b_);
  net_.Send(a_, b_, 100, [&] { ++delivered; });
  net_.failures().Crash(b_);
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_.link_stats(a_, b_).dropped, 2u);
}

TEST_F(NetworkStatsTest, PartitionsBlockTrafficUntilHealed) {
  uint64_t rule = net_.Partition({a_}, {b_});
  EXPECT_FALSE(net_.CanDeliver(a_, b_));
  EXPECT_FALSE(net_.CanDeliver(b_, a_));
  EXPECT_TRUE(net_.CanDeliver(a_, c_));

  int delivered = 0;
  net_.Send(a_, b_, 10, [&] { ++delivered; });
  net_.Send(b_, a_, 10, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net_.stats().dropped, 2u);

  EXPECT_TRUE(net_.HealPartition(rule));
  net_.Send(a_, b_, 10, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkStatsTest, OneWayPartitionIsAsymmetric) {
  net_.PartitionOneWay({a_}, {b_});
  EXPECT_FALSE(net_.CanDeliver(a_, b_));
  EXPECT_TRUE(net_.CanDeliver(b_, a_));

  int forward = 0;
  int reverse = 0;
  net_.Send(a_, b_, 10, [&] { ++forward; });
  net_.Send(b_, a_, 10, [&] { ++reverse; });
  sim_.RunUntilIdle();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(reverse, 1);
  net_.HealAllPartitions();
  EXPECT_EQ(net_.partition_count(), 0u);
}

TEST_F(NetworkStatsTest, LinkFaultsDropDuplicateAndDelay) {
  LinkFault drop_all;
  drop_all.drop_prob = 1.0;
  net_.SetLinkFault(a_, b_, drop_all);
  int delivered = 0;
  net_.Send(a_, b_, 10, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net_.link_stats(a_, b_).dropped, 1u);

  LinkFault dup_all;
  dup_all.dup_prob = 1.0;
  net_.SetLinkFault(a_, b_, dup_all);
  net_.Send(a_, b_, 10, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 2);  // Original + duplicate both ran the handler.
  EXPECT_EQ(net_.link_stats(a_, b_).duplicated, 1u);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, 2u);

  net_.ClearLinkFaults();
  LinkFault slow;
  slow.extra_delay = 50 * kSimMillisecond;
  net_.SetDefaultFault(slow);
  SimTime sent_at = sim_.now();
  SimTime latency = 0;
  net_.Send(a_, b_, 10, [&] { latency = sim_.now() - sent_at; });
  sim_.RunUntilIdle();
  EXPECT_GE(latency, 50 * kSimMillisecond);
  EXPECT_GT(net_.stats().delayed, 0u);
}

TEST_F(NetworkStatsTest, FifoChannelsNeverReorderButPlainSendsCan) {
  LinkFault reorder;
  reorder.reorder_prob = 1.0;
  net_.SetDefaultFault(reorder);

  // TCP-like FIFO channel: order preserved even with reorder faults active.
  std::vector<int> fifo_order;
  for (int i = 0; i < 10; ++i) {
    net_.SendFifo(a_, b_, 10, [&fifo_order, i] { fifo_order.push_back(i); });
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(fifo_order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(fifo_order.begin(), fifo_order.end()));
  EXPECT_EQ(net_.stats().reordered, 0u);

  // Plain sends: reorder faults reshuffle delivery delays.
  for (int i = 0; i < 10; ++i) {
    net_.Send(a_, b_, 10, [] {});
  }
  sim_.RunUntilIdle();
  EXPECT_GT(net_.stats().reordered, 0u);
}

TEST_F(NetworkStatsTest, ResetStatsClearsAggregateAndPerLinkCounters) {
  net_.failures().Crash(c_);
  for (int i = 0; i < 5; ++i) {
    net_.Send(a_, b_, 10, [] {});
  }
  net_.Send(a_, c_, 10, [] {});
  sim_.RunUntilIdle();
  ASSERT_EQ(net_.stats().delivered, 5u);
  ASSERT_EQ(net_.stats().dropped, 1u);
  ASSERT_EQ(net_.link_stats(a_, b_).delivered, 5u);
  ASSERT_EQ(net_.link_stats(a_, c_).dropped, 1u);

  net_.ResetStats();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
  EXPECT_EQ(net_.stats().delivered, 0u);
  EXPECT_EQ(net_.stats().dropped, 0u);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, 0u);
  EXPECT_EQ(net_.link_stats(a_, c_).dropped, 0u);
}

TEST_F(NetworkStatsTest, ResetStatsIsolatesMeasurementWindows) {
  // Two identical bursts separated by a reset must report identical stats:
  // nothing from the first window may leak into the second.
  auto burst = [this] {
    net_.failures().Crash(c_);
    for (int i = 0; i < 7; ++i) {
      net_.Send(a_, b_, 10, [] {});
    }
    net_.Send(a_, c_, 10, [] {});
    sim_.RunUntilIdle();
    net_.failures().Recover(c_);
  };
  burst();
  NetStats first = net_.stats();
  uint64_t first_ab = net_.link_stats(a_, b_).delivered;

  net_.ResetStats();
  burst();
  EXPECT_EQ(net_.stats().messages_sent, first.messages_sent);
  EXPECT_EQ(net_.stats().delivered, first.delivered);
  EXPECT_EQ(net_.stats().dropped, first.dropped);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, first_ab);
}

// A delivery sent before ResetStats counts in neither window: not in the
// old one, which was reset, and not against whatever link the new window
// materializes first.
TEST_F(NetworkStatsTest, ResetStatsWithDeliveryInFlightCountsItInNeitherWindow) {
  ServerId d{1, 1, 2};
  int delivered = 0;
  net_.Send(a_, b_, 10, [&] { ++delivered; });
  net_.ResetStats();
  net_.Send(c_, d, 10, [&] { ++delivered; });
  sim_.RunUntilIdle();
  EXPECT_EQ(delivered, 2);  // Both handlers still run.
  EXPECT_EQ(net_.link_stats(c_, d).sent, 1u);
  EXPECT_EQ(net_.link_stats(c_, d).delivered, 1u);
  EXPECT_EQ(net_.link_stats(a_, b_).sent, 0u);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, 0u);
  EXPECT_EQ(net_.stats().messages_sent, 1u);
  EXPECT_EQ(net_.stats().delivered, 1u);
  EXPECT_EQ(net_.materialized_links(), 1u);
  EXPECT_EQ(net_.SumLinkStats().delivered, net_.stats().delivered);
}

TEST_F(NetworkStatsTest, ResetStatsWithOnlyPreResetTrafficReadsZero) {
  net_.Send(a_, b_, 10, [] {});
  net_.ResetStats();
  sim_.RunUntilIdle();
  EXPECT_EQ(net_.stats().delivered, 0u);
  EXPECT_EQ(net_.link_stats(a_, b_).delivered, 0u);
  EXPECT_EQ(net_.materialized_links(), 0u);
  EXPECT_EQ(net_.SumLinkStats().delivered, 0u);
}

// The reset zeroes counters only: a FIFO channel keeps its clock, so a
// message sent after the reset cannot overtake one sent before it.
TEST_F(NetworkStatsTest, ResetStatsKeepsFifoChannelOrder) {
  std::vector<int> order;
  net_.SendFifo(a_, b_, 1 << 20, [&] { order.push_back(0); });  // Slow.
  net_.ResetStats();
  net_.SendFifo(a_, b_, 10, [&] { order.push_back(1); });
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// ---- Fault plans -------------------------------------------------------------

TEST(FaultPlanTest, SerializationRoundTripsEveryOp) {
  FaultPlan plan;
  FaultEvent crash;
  crash.at = 1 * kSimSecond;
  crash.op = FaultOp::kCrash;
  crash.group_a = {ServerId{0, 0, 3}};
  plan.events.push_back(crash);
  FaultEvent recover = crash;
  recover.at = 2 * kSimSecond;
  recover.op = FaultOp::kRecover;
  plan.events.push_back(recover);
  FaultEvent proxy_crash;
  proxy_crash.at = 3 * kSimSecond;
  proxy_crash.op = FaultOp::kCrashProxy;
  proxy_crash.index = 4;
  plan.events.push_back(proxy_crash);
  FaultEvent proxy_restart = proxy_crash;
  proxy_restart.at = 4 * kSimSecond;
  proxy_restart.op = FaultOp::kRestartProxy;
  plan.events.push_back(proxy_restart);
  FaultEvent cut;
  cut.at = 5 * kSimSecond;
  cut.op = FaultOp::kPartition;
  cut.group_a = {ServerId{0, 0, 0}, ServerId{0, 0, 1}};
  cut.group_b = {ServerId{1, 0, 0}};
  plan.events.push_back(cut);
  FaultEvent oneway = cut;
  oneway.at = 6 * kSimSecond;
  oneway.op = FaultOp::kPartitionOneWay;
  plan.events.push_back(oneway);
  FaultEvent heal;
  heal.at = 7 * kSimSecond;
  heal.op = FaultOp::kHealPartitions;
  plan.events.push_back(heal);
  FaultEvent storm;
  storm.at = 8 * kSimSecond;
  storm.op = FaultOp::kGlobalFault;
  storm.fault.drop_prob = 0.125;
  storm.fault.dup_prob = 0.0625;
  storm.fault.reorder_prob = 0.25;
  storm.fault.extra_delay = 7 * kSimMillisecond;
  storm.fault.extra_delay_jitter = 3 * kSimMillisecond;
  plan.events.push_back(storm);
  FaultEvent clear;
  clear.at = 9 * kSimSecond;
  clear.op = FaultOp::kClearFaults;
  plan.events.push_back(clear);
  FaultEvent corrupt;
  corrupt.at = 10 * kSimSecond;
  corrupt.op = FaultOp::kCorruptDisk;
  corrupt.index = 2;
  plan.events.push_back(corrupt);
  FaultEvent gated_pair;
  gated_pair.at = 11 * kSimSecond;
  gated_pair.op = FaultOp::kInconsistentCommit;
  gated_pair.key = "gated";
  plan.events.push_back(gated_pair);
  FaultEvent bypass_pair = gated_pair;
  bypass_pair.at = 12 * kSimSecond;
  bypass_pair.key = "bypass";
  plan.events.push_back(bypass_pair);
  FaultEvent hand_edit = gated_pair;
  hand_edit.at = 13 * kSimSecond;
  hand_edit.key = "hand-edit";
  plan.events.push_back(hand_edit);

  std::string text = plan.ToString();
  auto parsed = FaultPlan::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_EQ(parsed->size(), plan.size());
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministic) {
  ScenarioOptions options;
  Harness harness(options);
  FaultPlanShape shape = harness.shape();
  FaultPlan p1 = FaultPlan::Random(99, shape);
  FaultPlan p2 = FaultPlan::Random(99, shape);
  EXPECT_EQ(p1.ToString(), p2.ToString());
  EXPECT_FALSE(p1.empty());

  FaultPlan p3 = FaultPlan::Random(100, shape);
  EXPECT_NE(p1.ToString(), p3.ToString());

  // Clean-run sweeps never inject corruption unless asked, and never land
  // an inconsistent commit.
  for (const FaultEvent& event : p1.events) {
    EXPECT_NE(event.op, FaultOp::kCorruptDisk);
  }
  RandomPlanOptions corrupting;
  corrupting.include_corruption = true;
  corrupting.incidents = 200;
  for (const FaultEvent& event :
       FaultPlan::Random(99, shape, corrupting).events) {
    EXPECT_NE(event.op, FaultOp::kInconsistentCommit);
  }
}

// ---- Harness: clean chaos runs ----------------------------------------------

ScenarioOptions SmokeScenario(uint64_t seed) {
  ScenarioOptions options;
  options.seed = seed;
  options.chaos_duration = 40 * kSimSecond;
  options.settle = 25 * kSimSecond;
  options.writes = 30;
  options.vessel_bytes = 8 << 20;
  return options;
}

class DstSmokeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DstSmokeTest, RandomChaosRunsClean) {
  ScenarioOptions options = SmokeScenario(GetParam());
  Harness harness(options);
  FaultPlan plan = FaultPlan::Random(GetParam(), harness.shape());
  RunResult result = harness.Run(plan);
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message;
  // The run must have done real work under real faults.
  EXPECT_GT(result.committed_zxid, 0);
  EXPECT_GT(result.published, 0u);
  EXPECT_EQ(result.vessel_completed, 8u);
  EXPECT_GT(result.net.messages_sent, 0u);
  EXPECT_GT(result.net.dropped + result.net.delayed + result.net.duplicated +
                result.net.reordered,
            0u)
      << "fault plan fired no observable network fault";
  // Every workload write landed through propose, review, CI and the strip.
  EXPECT_EQ(result.trace.find("rejected"), std::string::npos) << result.trace;
}

// Seeds picked so every smoke run's random plan fires countable network
// faults (a handful of seeds roll only proxy crashes / inert partitions).
INSTANTIATE_TEST_SUITE_P(Seeds, DstSmokeTest,
                         ::testing::Values(1, 2, 3, 5, 7));

// The wide sweep: excluded from tier-1 (ctest configuration + label "chaos");
// scripts/check.sh --lane chaos runs it.
class DstChaosSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DstChaosSweepTest, RandomChaosRunsClean) {
  ScenarioOptions options = SmokeScenario(GetParam());
  Harness harness(options);
  RandomPlanOptions plan_options;
  plan_options.incidents = 10;
  FaultPlan plan = FaultPlan::Random(GetParam() * 7 + 3, harness.shape(),
                                     plan_options);
  RunResult result = harness.Run(plan);
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message
      << "\n--- replayable trace ---\n"
      << result.trace;
  EXPECT_GT(result.committed_zxid, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DstChaosSweepTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// ---- Replay determinism ------------------------------------------------------

TEST(DstReplayTest, TraceReplaysBitForBit) {
  ScenarioOptions options = SmokeScenario(11);
  Harness harness(options);
  FaultPlan plan = FaultPlan::Random(11, harness.shape());
  RunResult first = harness.Run(plan);

  auto replayed = Harness::Replay(first.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->violated, first.violated);
  EXPECT_EQ(replayed->committed_zxid, first.committed_zxid);
  EXPECT_EQ(replayed->published, first.published);
  EXPECT_EQ(replayed->sim_events, first.sim_events);
  EXPECT_EQ(replayed->net.messages_sent, first.net.messages_sent);
  EXPECT_EQ(replayed->net.dropped, first.net.dropped);
  // The replay's own trace is identical — the fixed point that makes traces
  // shareable bug reports.
  EXPECT_EQ(replayed->trace, first.trace);
}

// A trace is input from outside the process (a shared bug report). A
// scenario line the harness cannot run is an error, never a crash, a hang
// or a spurious violation.
Status ReplayScenario(const std::string& options) {
  Result<RunResult> run = Harness::Replay(
      "# dst-trace v1\nscenario seed=1 vessel=0 " + options +
      "\nplan-begin\nplan-end\n");
  return run.ok() ? OkStatus() : run.status();
}

TEST(DstReplayTest, RejectsNegativeProxyCount) {
  EXPECT_EQ(ReplayScenario("proxies=-1").code(), StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsWritesWithNoKeys) {
  EXPECT_EQ(ReplayScenario("keys=0 writes=3").code(),
            StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsZeroRegions) {
  EXPECT_EQ(ReplayScenario("regions=0").code(), StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsZeroMembers) {
  EXPECT_EQ(ReplayScenario("members=0").code(), StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsClustersTooSmallToPlace) {
  EXPECT_EQ(ReplayScenario("spc=4").code(), StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsMoreProxiesThanServers) {
  // The default topology has 64 servers.
  EXPECT_EQ(ReplayScenario("proxies=5000").code(),
            StatusCode::kInvalidArgument);
}

TEST(DstReplayTest, RejectsNonNumericValues) {
  for (const char* options :
       {"proxies=8x", "proxies=", "keys=five", "seed=-1", "seed=0x10",
        "chaos_us=1e9", "spc=99999999999999999999"}) {
    EXPECT_EQ(ReplayScenario(options).code(), StatusCode::kInvalidArgument)
        << options;
  }
}

// ---- The seeded bug: torn config served after a proxy crash ------------------

// A disk-corruption event tears proxy 2's on-disk cache; when the proxy
// process then crashes, the application client falls back to disk (the §3.4
// availability path) and serves the torn value. The no-torn-config invariant
// must catch it, the shrinker must reduce the schedule to its essence (the
// corruption + the crash), and the shrunk trace must replay deterministically.
FaultPlan SeededTornConfigPlan(const FaultPlanShape& shape) {
  FaultPlan plan;
  auto add = [&plan](SimTime at, FaultOp op) -> FaultEvent& {
    FaultEvent event;
    event.at = at;
    event.op = op;
    plan.events.push_back(event);
    return plan.events.back();
  };
  // Noise the shrinker must discard: a member outage, a lossy window, a
  // cross-region partition.
  add(8 * kSimSecond, FaultOp::kCrash).group_a = {shape.members.at(1)};
  add(14 * kSimSecond, FaultOp::kRecover).group_a = {shape.members.at(1)};
  FaultEvent& storm = add(10 * kSimSecond, FaultOp::kGlobalFault);
  storm.fault.drop_prob = 0.05;
  storm.fault.reorder_prob = 0.1;
  add(16 * kSimSecond, FaultOp::kClearFaults);
  FaultEvent& cut = add(18 * kSimSecond, FaultOp::kPartition);
  for (const ServerId& id : shape.members) {
    (id.region == 0 ? cut.group_a : cut.group_b).push_back(id);
  }
  for (const ServerId& id : shape.observers) {
    (id.region == 0 ? cut.group_a : cut.group_b).push_back(id);
  }
  add(24 * kSimSecond, FaultOp::kHealPartitions);
  add(12 * kSimSecond, FaultOp::kCrashProxy).index = 6;
  add(15 * kSimSecond, FaultOp::kRestartProxy).index = 6;
  // The bug itself.
  FaultEvent& corrupt = add(26 * kSimSecond, FaultOp::kCorruptDisk);
  corrupt.index = 2;
  FaultEvent& crash = add(27 * kSimSecond, FaultOp::kCrashProxy);
  crash.index = 2;
  plan.SortByTime();
  return plan;
}

TEST(DstSeededBugTest, TornConfigIsCaughtShrunkAndReplayed) {
  ScenarioOptions options = SmokeScenario(21);
  FaultPlan plan;
  {
    Harness harness(options);
    plan = SeededTornConfigPlan(harness.shape());
  }
  ASSERT_EQ(plan.size(), 10u);

  // 1. The invariant catches the bug.
  Harness harness(options);
  RunResult failing = harness.Run(plan);
  ASSERT_TRUE(failing.violated) << "seeded bug was not caught";
  EXPECT_EQ(failing.violation.invariant, "no-torn-config")
      << failing.violation.message;

  // 2. The shrinker reduces the 9-event schedule to a minimal reproduction.
  ShrinkResult shrunk =
      ShrinkFaultPlan(options, plan, failing.violation.invariant);
  EXPECT_LE(shrunk.final_events, 5u) << shrunk.plan.ToString();
  EXPECT_GE(shrunk.final_events, 2u)
      << "corruption alone must not fire (apps read the live proxy): "
      << shrunk.plan.ToString();
  ASSERT_TRUE(shrunk.run.violated);
  EXPECT_EQ(shrunk.run.violation.invariant, "no-torn-config");
  // The essence survived: the corruption and the proxy crash.
  bool has_corrupt = false;
  bool has_proxy_crash = false;
  for (const FaultEvent& event : shrunk.plan.events) {
    has_corrupt |= event.op == FaultOp::kCorruptDisk;
    has_proxy_crash |= event.op == FaultOp::kCrashProxy;
  }
  EXPECT_TRUE(has_corrupt);
  EXPECT_TRUE(has_proxy_crash);

  // 3. seed + shrunk trace reproduce the identical violation.
  auto replayed = Harness::Replay(shrunk.run.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(replayed->violated);
  EXPECT_EQ(replayed->violation.invariant, shrunk.run.violation.invariant);
  EXPECT_EQ(replayed->violation.at, shrunk.run.violation.at);
  EXPECT_EQ(replayed->violation.message, shrunk.run.violation.message);
}

// ---- Cross-config invariants at the commit gate ------------------------------

// Builds a plan that lands the jointly-inconsistent shed/kill pair after the
// workload's last write (writes land strictly before chaos_duration - 1s),
// so no later benign write papers over the pair before proxies serve it.
FaultPlan InconsistentCommitPlan(const ScenarioOptions& options,
                                 const std::string& mode) {
  FaultPlan plan;
  FaultEvent pair;
  pair.at = options.chaos_duration - 1;
  pair.op = FaultOp::kInconsistentCommit;
  pair.key = mode;
  plan.events.push_back(pair);
  return plan;
}

TEST(DstSeededBugTest, InconsistentCommitIsBlockedByTheGate) {
  // "gated" proposes the pair through the stack; Sandcastle's invariant
  // stage, reading the spec the seed commit landed, must reject it, so the
  // fleet never sees the pair and the run converges clean.
  ScenarioOptions options = SmokeScenario(31);
  Harness harness(options);
  RunResult result = harness.Run(InconsistentCommitPlan(options, "gated"));
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message;
  size_t rejected = result.trace.find("rejected inconsistent-pair");
  ASSERT_NE(rejected, std::string::npos) << "the gate never fired";
  std::string line = result.trace.substr(
      rejected, result.trace.find('\n', rejected) - rejected);
  EXPECT_NE(line.find("[I001] invariant 'shed-below-kill' violated"),
            std::string::npos)
      << line;
  EXPECT_EQ(result.trace.find("commit inconsistent-pair"), std::string::npos);
}

TEST(DstSeededBugTest, InconsistentCommitBypassIsCaughtShrunkAndReplayed) {
  ScenarioOptions options = SmokeScenario(31);
  // The bypass (a simulated force-land) buried in schedule noise.
  FaultPlan plan = InconsistentCommitPlan(options, "bypass");
  {
    Harness noise_shape(options);
    FaultPlanShape shape = noise_shape.shape();
    FaultEvent crash;
    crash.at = 5 * kSimSecond;
    crash.op = FaultOp::kCrash;
    crash.group_a = {shape.observers[0]};
    plan.events.push_back(crash);
    FaultEvent recover = crash;
    recover.at = 9 * kSimSecond;
    recover.op = FaultOp::kRecover;
    plan.events.push_back(recover);
    plan.SortByTime();
  }

  // 1. The continuous cross-config check catches the served pair.
  Harness harness(options);
  RunResult failing = harness.Run(plan);
  ASSERT_TRUE(failing.violated) << "bypassed pair was never caught";
  EXPECT_EQ(failing.violation.invariant, "cross-config-invariant")
      << failing.violation.message;
  EXPECT_NE(failing.violation.message.find("shed=90"), std::string::npos)
      << failing.violation.message;

  // 2. The shrinker strips the noise: the force-landed commit alone
  //    reproduces.
  ShrinkResult shrunk =
      ShrinkFaultPlan(options, plan, failing.violation.invariant);
  EXPECT_EQ(shrunk.final_events, 1u) << shrunk.plan.ToString();
  ASSERT_TRUE(shrunk.run.violated);
  ASSERT_EQ(shrunk.plan.events.size(), 1u);
  EXPECT_EQ(shrunk.plan.events[0].op, FaultOp::kInconsistentCommit);
  EXPECT_EQ(shrunk.plan.events[0].key, "bypass");

  // 3. seed + shrunk trace reproduce the identical violation.
  auto replayed = Harness::Replay(shrunk.run.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(replayed->violated);
  EXPECT_EQ(replayed->violation.invariant, shrunk.run.violation.invariant);
  EXPECT_EQ(replayed->violation.at, shrunk.run.violation.at);
  EXPECT_EQ(replayed->violation.message, shrunk.run.violation.message);
}

// ---- Served equals compiled --------------------------------------------------

// A hand edit of cfg/svc.json, the compiled output of cfg/svc.cconf,
// force-landed past CI (which rejects it) and buried in schedule noise. The
// fleet converges on the edited value, so Zeus agrees with every proxy;
// only served-equals-compiled, which compiles the entry at head, sees that
// no source produces what the fleet serves.
TEST(DstSeededBugTest, HandEditedCompiledOutputIsCaughtShrunkAndReplayed) {
  ScenarioOptions options = SmokeScenario(31);
  FaultPlan plan = InconsistentCommitPlan(options, "hand-edit");
  {
    Harness noise_shape(options);
    FaultPlanShape shape = noise_shape.shape();
    FaultEvent crash;
    crash.at = 6 * kSimSecond;
    crash.op = FaultOp::kCrash;
    crash.group_a = {shape.members.at(1)};
    plan.events.push_back(crash);
    FaultEvent recover = crash;
    recover.at = 11 * kSimSecond;
    recover.op = FaultOp::kRecover;
    plan.events.push_back(recover);
    FaultEvent proxy_crash;
    proxy_crash.at = 14 * kSimSecond;
    proxy_crash.op = FaultOp::kCrashProxy;
    proxy_crash.index = 3;
    plan.events.push_back(proxy_crash);
    FaultEvent proxy_restart = proxy_crash;
    proxy_restart.at = 19 * kSimSecond;
    proxy_restart.op = FaultOp::kRestartProxy;
    plan.events.push_back(proxy_restart);
    plan.SortByTime();
  }

  // 1. The convergence check catches the served output.
  Harness harness(options);
  RunResult failing = harness.Run(plan);
  ASSERT_TRUE(failing.violated) << "hand-edited output was never caught";
  EXPECT_EQ(failing.violation.invariant, "served-equals-compiled")
      << failing.violation.message;
  EXPECT_NE(failing.trace.find("commit hand-edit cfg/svc.json"),
            std::string::npos);

  // 2. The shrinker strips the noise: the force-landed edit alone
  //    reproduces.
  ShrinkResult shrunk =
      ShrinkFaultPlan(options, plan, failing.violation.invariant);
  EXPECT_EQ(shrunk.final_events, 1u) << shrunk.plan.ToString();
  ASSERT_TRUE(shrunk.run.violated);
  ASSERT_EQ(shrunk.plan.events.size(), 1u);
  EXPECT_EQ(shrunk.plan.events[0].op, FaultOp::kInconsistentCommit);
  EXPECT_EQ(shrunk.plan.events[0].key, "hand-edit");

  // 3. seed + shrunk trace reproduce the identical violation.
  auto replayed = Harness::Replay(shrunk.run.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(replayed->violated);
  EXPECT_EQ(replayed->violation.invariant, shrunk.run.violation.invariant);
  EXPECT_EQ(replayed->violation.at, shrunk.run.violation.at);
  EXPECT_EQ(replayed->violation.message, shrunk.run.violation.message);
}

// ---- Freshness SLO: propagation latency as an invariant ----------------------

TEST(DstFreshnessTest, SloHoldsOnCleanRun) {
  ScenarioOptions options = SmokeScenario(13);
  options.freshness_slo = 30 * kSimSecond;
  Harness harness(options);
  RunResult result = harness.Run(FaultPlan{});
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message;
  // The invariant actually had data to judge: every proxy recorded
  // propagation samples into the registry.
  Histogram fleet =
      harness.obs().metrics.MergedHistogram("proxy_propagation_seconds");
  EXPECT_GT(fleet.count(), 0u);
  EXPECT_LE(fleet.Quantile(0.999), SimToSeconds(options.freshness_slo));
}

// A one-way partition silently starves one observer: traffic from every
// ensemble member to it is blackholed while the reverse direction (and the
// rest of the fleet) stays healthy, so neither the commit stream nor
// anti-entropy reaches it until the final heal. Convergence still passes —
// the post-heal anti-entropy replay repairs the data, txn by txn — but every
// proxy hanging off that observer sees those commits tens of seconds late,
// which is exactly what the freshness SLO exists to catch.
FaultPlan SeededStarvedObserverPlan(const FaultPlanShape& shape) {
  FaultPlan plan;
  auto add = [&plan](SimTime at, FaultOp op) -> FaultEvent& {
    FaultEvent event;
    event.at = at;
    event.op = op;
    plan.events.push_back(event);
    return plan.events.back();
  };
  // Noise the shrinker must discard.
  add(6 * kSimSecond, FaultOp::kCrash).group_a = {shape.members.at(2)};
  add(12 * kSimSecond, FaultOp::kRecover).group_a = {shape.members.at(2)};
  FaultEvent& storm = add(9 * kSimSecond, FaultOp::kGlobalFault);
  storm.fault.drop_prob = 0.05;
  add(15 * kSimSecond, FaultOp::kClearFaults);
  // The bug: members -> observer 1, one way, never healed before FinalHeal.
  FaultEvent& starve = add(5 * kSimSecond, FaultOp::kPartitionOneWay);
  starve.group_a = shape.members;
  starve.group_b = {shape.observers.at(1)};
  plan.SortByTime();
  return plan;
}

TEST(DstFreshnessTest, DelayedOneWayPartitionViolatesSloAndShrinksMinimal) {
  ScenarioOptions options = SmokeScenario(23);
  options.freshness_slo = 30 * kSimSecond;
  FaultPlan plan;
  {
    Harness harness(options);
    plan = SeededStarvedObserverPlan(harness.shape());
  }
  ASSERT_EQ(plan.size(), 5u);

  // 1. The SLO invariant fires, and the violation carries the span tree of
  // the slowest delivery's commit.
  Harness harness(options);
  RunResult failing = harness.Run(plan);
  ASSERT_TRUE(failing.violated) << "starved proxy did not violate the SLO";
  EXPECT_EQ(failing.violation.invariant, "freshness-slo")
      << failing.violation.message;
  EXPECT_FALSE(failing.violation.span_tree.empty());
  EXPECT_NE(failing.trace.find("span-tree-begin"), std::string::npos);
  EXPECT_NE(failing.violation.span_tree.find("proxy.apply"),
            std::string::npos);

  // 2. The shrinker strips the noise: the one-way partition alone reproduces.
  ShrinkResult shrunk =
      ShrinkFaultPlan(options, plan, failing.violation.invariant);
  EXPECT_LE(shrunk.final_events, 2u) << shrunk.plan.ToString();
  ASSERT_TRUE(shrunk.run.violated);
  EXPECT_EQ(shrunk.run.violation.invariant, "freshness-slo");
  bool has_oneway = false;
  for (const FaultEvent& event : shrunk.plan.events) {
    has_oneway |= event.op == FaultOp::kPartitionOneWay;
  }
  EXPECT_TRUE(has_oneway) << shrunk.plan.ToString();

  // 3. The shrunk trace replays to the identical violation (slo_us rides in
  // the serialized scenario line).
  auto replayed = Harness::Replay(shrunk.run.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(replayed->violated);
  EXPECT_EQ(replayed->violation.invariant, shrunk.run.violation.invariant);
  EXPECT_EQ(replayed->violation.at, shrunk.run.violation.at);
  EXPECT_EQ(replayed->violation.message, shrunk.run.violation.message);
}

// ---- Commit span trees stay complete under faults ----------------------------

TEST(DstTraceTest, CommitSpanTreeIsCompleteUnderFaults) {
  ScenarioOptions options = SmokeScenario(17);
  Harness harness(options);
  FaultPlanShape shape = harness.shape();

  // Faults confined to the delivery side (observers and proxies) — the
  // tailer -> leader write path stays healthy, so every publish span closes.
  FaultPlan plan;
  auto add = [&plan](SimTime at, FaultOp op) -> FaultEvent& {
    FaultEvent event;
    event.at = at;
    event.op = op;
    plan.events.push_back(event);
    return plan.events.back();
  };
  add(7 * kSimSecond, FaultOp::kCrash).group_a = {shape.observers.at(0)};
  add(15 * kSimSecond, FaultOp::kRecover).group_a = {shape.observers.at(0)};
  FaultEvent& cut = add(10 * kSimSecond, FaultOp::kPartition);
  cut.group_a = shape.observers;
  cut.group_b = {shape.proxies.at(1), shape.proxies.at(5)};
  add(18 * kSimSecond, FaultOp::kHealPartitions);
  add(12 * kSimSecond, FaultOp::kCrashProxy).index = 4;
  add(16 * kSimSecond, FaultOp::kRestartProxy).index = 4;
  plan.SortByTime();

  RunResult result = harness.Run(plan);
  ASSERT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message;
  ASSERT_GT(result.committed_zxid, 0);

  // Walk back from the last committed zxid to the most recent change landed
  // through the stack (the tail can be a vessel publish, whose trace has no
  // proxy fan-out), then demand a complete span tree that reached every
  // proxy.
  const Tracer& tracer = harness.obs().tracer;
  const TraceData* trace = nullptr;
  for (int64_t zxid = result.committed_zxid; zxid > 0 && trace == nullptr;
       --zxid) {
    TraceContext ctx = tracer.ZxidContext(zxid);
    if (!ctx.valid()) {
      continue;
    }
    const TraceData* candidate = tracer.Find(ctx.trace_id);
    if (candidate != nullptr &&
        candidate->name.rfind("change:", 0) == 0) {
      trace = candidate;
    }
  }
  ASSERT_NE(trace, nullptr) << "no landed change's trace found";

  Status complete = tracer.ValidateComplete(trace->id);
  EXPECT_TRUE(complete.ok()) << complete << "\n" << tracer.DumpTree(trace->id);

  // Despite the observer crash, the partition, and the proxy restart, the
  // commit's tree reached every proxy in the fleet (late joiners re-enter
  // through catch-up deliveries, which rebind into the same trace).
  std::set<std::string> applied_hosts;
  for (const Span& span : trace->spans) {
    if (span.name == "proxy.apply") {
      applied_hosts.insert(span.host);
    }
  }
  for (const ServerId& proxy : shape.proxies) {
    EXPECT_TRUE(applied_hosts.count(proxy.ToString()) > 0)
        << "no proxy.apply span for " << proxy.ToString() << "\n"
        << tracer.DumpTree(trace->id);
  }
}

// ---- PackageVessel under churn ----------------------------------------------

TEST(DstVesselChurnTest, SwarmSurvivesPeerChurnAndPartitions) {
  ScenarioOptions options = SmokeScenario(31);
  options.vessel_bytes = 16 << 20;  // 8 chunks: enough for real peer traffic.
  Harness harness(options);
  FaultPlanShape shape = harness.shape();

  FaultPlan plan;
  auto add = [&plan](SimTime at, FaultOp op) -> FaultEvent& {
    FaultEvent event;
    event.at = at;
    event.op = op;
    plan.events.push_back(event);
    return plan.events.back();
  };
  // Two vessel clients leave and rejoin mid-download.
  add(6 * kSimSecond, FaultOp::kCrash).group_a = {shape.proxies.at(1)};
  add(14 * kSimSecond, FaultOp::kRecover).group_a = {shape.proxies.at(1)};
  add(8 * kSimSecond, FaultOp::kCrash).group_a = {shape.proxies.at(5)};
  add(16 * kSimSecond, FaultOp::kRecover).group_a = {shape.proxies.at(5)};
  // The storage service is cut off from every client for a while: only
  // peer-to-peer exchange can make progress.
  FaultEvent& cut = add(10 * kSimSecond, FaultOp::kPartition);
  cut.group_a = {shape.other_hosts.at(1)};  // Storage host.
  cut.group_b = shape.proxies;
  add(20 * kSimSecond, FaultOp::kHealPartitions);
  plan.SortByTime();

  RunResult result = harness.Run(plan);
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message;
  EXPECT_EQ(result.vessel_completed, 8u);
  ASSERT_NE(harness.swarm(), nullptr);
  EXPECT_GT(harness.swarm()->stats().bytes_from_peers, 0)
      << "churn scenario never exercised peer-to-peer transfer";
  // Metadata/bulk consistency held throughout (vessel-metadata-hash), and
  // every rejoined client finished (vessel-complete would have fired).
  for (const ServerId& client : shape.proxies) {
    EXPECT_TRUE(harness.swarm()->ClientDone(client)) << client.ToString();
  }
}

// ---- MobileConfig: emergency push racing a pull under reordering -------------

TEST(DstMobileRaceTest, StalePullResponseCannotRollBackEmergencyPush) {
  TranslationLayer translation;
  translation.Bind("EMERGENCY", "killswitch", FieldBinding::Constant(Json(false)));
  MobileConfigServer server(&translation, nullptr, nullptr);
  MobileSchema schema;
  schema.config_name = "EMERGENCY";
  schema.fields = {{"killswitch", MobileFieldType::kBool}};
  server.RegisterSchema(schema);

  UserContext device;
  device.user_id = 7;
  MobileConfigClient client(schema, device);
  ASSERT_TRUE(client.Sync(server).ok());
  EXPECT_FALSE(client.getBool("killswitch", true));

  // A scheduled pull is answered... but the response gets stuck in flight.
  MobilePullRequest stale_request;
  stale_request.config_name = schema.config_name;
  stale_request.schema_hash = schema.Hash();
  stale_request.values_hash = Sha256Digest{};  // Forces a full-value response.
  stale_request.device = device;
  auto in_flight = server.HandlePull(stale_request);
  ASSERT_TRUE(in_flight.ok());
  EXPECT_FALSE(in_flight->unchanged);

  // Emergency: flip the killswitch and push. The client pulls immediately.
  translation.Bind("EMERGENCY", "killswitch", FieldBinding::Constant(Json(true)));
  server.NoteConfigChanged();
  auto pushed = client.OnEmergencyPush(server);
  ASSERT_TRUE(pushed.ok());
  EXPECT_TRUE(*pushed);
  EXPECT_TRUE(client.getBool("killswitch", false));

  // The delayed pre-push response finally arrives — reordered after the push
  // response. It must be rejected, not roll the killswitch back.
  EXPECT_FALSE(client.ApplyPullResponse(*in_flight));
  EXPECT_EQ(client.stale_rejected(), 1u);
  EXPECT_TRUE(client.getBool("killswitch", false));
  EXPECT_EQ(client.applied_generation(), server.generation());

  // Swapped arrival order on a second device converges to the same state.
  MobileConfigClient other(schema, device);
  EXPECT_TRUE(other.ApplyPullResponse(*in_flight));   // Old arrives first...
  EXPECT_FALSE(other.getBool("killswitch", true));
  ASSERT_TRUE(other.Sync(server).ok());               // ...then the fresh pull.
  EXPECT_TRUE(other.getBool("killswitch", false));
}

// ---- Gatekeeper update vs. anti-entropy replay race --------------------------

// Partition every observer away from the Zeus members squarely inside the
// config-update window: Gatekeeper updates keep committing while the
// observers (and the proxies behind them) are cut off, and the heal triggers
// an anti-entropy replay of the queued updates that races the still-ongoing
// live stream. A second cut/heal cycle repeats the race later in the
// schedule. The gatekeeper-consistency invariant (concurrent snapshot
// runtime vs. the naive declared-order evaluator over the exact delivered
// JSON) is checked after every simulator event.
FaultPlan GatekeeperRacePlan(const FaultPlanShape& shape) {
  FaultPlan plan;
  auto cut_observers = [&shape](SimTime at) {
    FaultEvent cut;
    cut.at = at;
    cut.op = FaultOp::kPartition;
    cut.group_a = shape.members;
    cut.group_b = shape.observers;
    return cut;
  };
  auto heal = [](SimTime at) {
    FaultEvent event;
    event.at = at;
    event.op = FaultOp::kHealPartitions;
    return event;
  };
  plan.events.push_back(cut_observers(8 * kSimSecond));
  plan.events.push_back(heal(18 * kSimSecond));
  plan.events.push_back(cut_observers(24 * kSimSecond));
  plan.events.push_back(heal(32 * kSimSecond));
  plan.SortByTime();
  return plan;
}

TEST(DstGatekeeperRaceTest, UpdateRacesAntiEntropyReplayAndStaysConsistent) {
  ScenarioOptions options = SmokeScenario(23);
  Harness harness(options);
  FaultPlan plan = GatekeeperRacePlan(harness.shape());
  RunResult result = harness.Run(plan);
  EXPECT_FALSE(result.violated)
      << result.violation.invariant << ": " << result.violation.message
      << "\n--- replayable trace ---\n"
      << result.trace;
  // The race actually happened: updates committed and the partitions blocked
  // real traffic before healing.
  EXPECT_GT(result.committed_zxid, 0);
  EXPECT_GT(result.net.dropped, 0u) << "partitions blocked no messages";

  // The trace replays bit-for-bit, differential invariant included.
  auto replayed = Harness::Replay(result.trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_FALSE(replayed->violated);
  EXPECT_EQ(replayed->trace, result.trace);
  EXPECT_EQ(replayed->sim_events, result.sim_events);
}

}  // namespace
}  // namespace configerator
