// Declarative fault plans for deterministic simulation testing.
//
// A FaultPlan is a time-ordered sequence of fault and heal events that the
// Harness applies to a running scenario: server crashes/recoveries, network
// partitions (symmetric and asymmetric), probabilistic link faults (drop,
// duplicate, reorder, delay), proxy process crashes, and on-disk cache
// corruption (torn writes). Plans serialize to a line-oriented text format so
// a failing schedule can be written to a trace file, shrunk, and replayed
// from `seed + trace` alone.

#ifndef SRC_DST_FAULT_PLAN_H_
#define SRC_DST_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/sim/network.h"
#include "src/util/status.h"

namespace configerator {

enum class FaultOp {
  kCrash,            // Crash server group_a[0] (Zeus member, observer, or host).
  kRecover,          // Recover server group_a[0].
  kCrashProxy,       // Crash proxy process #index (host server stays up).
  kRestartProxy,     // Restart proxy process #index.
  kPartition,        // Bidirectional partition between group_a and group_b.
  kPartitionOneWay,  // Block only group_a → group_b traffic.
  kHealPartitions,   // Remove every active partition rule.
  kGlobalFault,      // Apply `fault` as the network-wide default LinkFault.
  kClearFaults,      // Clear all link faults.
  kCorruptDisk,      // Tear proxy #index's on-disk cache entry for `key`
                     // ("*" = every cached key) — a torn write.
  kInconsistentCommit,  // Commit a config that contradicts another; `key`
                        // is the mode. "gated" proposes a shed threshold
                        // above its kill threshold (two keys), which
                        // Sandcastle must reject; "bypass" force-lands that
                        // pair; "hand-edit" force-lands a compiled output its
                        // CSL source does not produce. Never random.
};

struct FaultEvent {
  SimTime at = 0;
  FaultOp op = FaultOp::kCrash;
  std::vector<ServerId> group_a;
  std::vector<ServerId> group_b;
  int index = -1;     // Proxy index for kCrashProxy/kRestartProxy/kCorruptDisk.
  std::string key;    // kCorruptDisk target key; "*" = all cached keys.
  LinkFault fault;    // kGlobalFault parameters.

  // One-line form, e.g. "at 1500000 partition 0.0.0,0.0.1 | 1.0.0,1.0.1".
  std::string ToLine() const;
  static Result<FaultEvent> FromLine(const std::string& line);
};

// What Random() is allowed to target: the concrete scenario shape.
struct FaultPlanShape {
  std::vector<ServerId> members;
  std::vector<ServerId> observers;
  std::vector<ServerId> proxies;      // Proxy host servers, by proxy index.
  std::vector<ServerId> other_hosts;  // Tailer, storage, writer hosts.
  SimTime duration = 60 * kSimSecond; // Events land in [duration/20, 9/10·duration].
};

struct RandomPlanOptions {
  int incidents = 8;               // Fault/heal pairs to generate (approx.).
  bool include_corruption = false; // Disk corruption is a real fault the
                                   // invariants are supposed to catch, so
                                   // clean-run sweeps keep it off.
  double max_drop_prob = 0.15;
  double max_dup_prob = 0.10;
  double max_reorder_prob = 0.25;
  SimTime max_extra_delay = 20 * kSimMillisecond;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  void SortByTime();
  bool empty() const { return events.empty(); }
  size_t size() const { return events.size(); }

  // One event per line; Parse() is its exact inverse.
  std::string ToString() const;
  static Result<FaultPlan> Parse(const std::string& text);

  // Seed-deterministic randomized plan: crashes paired with recoveries,
  // partitions with heals, link-fault windows with clears — every fault
  // transient, so a healed scenario can be held to convergence invariants.
  static FaultPlan Random(uint64_t seed, const FaultPlanShape& shape,
                          const RandomPlanOptions& options = {});
};

}  // namespace configerator

#endif  // SRC_DST_FAULT_PLAN_H_
