// Deterministic simulation-testing harness (FoundationDB-style) for the full
// Configerator stack. One Harness owns one scenario running on one
// ConfigManagementStack: every workload write is proposed, compiled, checked
// by Sandcastle, approved and landed through the landing strip, then tailed
// into Zeus and served by config proxies with on-disk caches and
// application clients. Gatekeeper runtimes are fed by those proxies, and a
// PackageVessel swarm pulls a large config over the stack's network. Run()
// executes the scenario under a FaultPlan and checks continuous safety
// invariants after *every* simulator event, plus convergence invariants
// after the final heal.
//
// Invariant catalog (docs/TESTING.md has the full rationale). After every
// event: monotonic-version, phantom-version, no-torn-config (every served
// value was landed), last-known-good, vessel-metadata-hash,
// gatekeeper-consistency (a runtime matches the naive evaluator on the JSON
// delivered to it) and cross-config-invariant (no proxy serves the shed/kill
// pair only the inconsistent-commit fault writes: "gated" proposes it and
// Sandcastle rejects it, "bypass" force-lands it). After the final heal:
// convergence-observer, convergence-proxy, served-equals-compiled (every
// proxy serves the CSL entry's output as the compiler produces it at head;
// only the "hand-edit" force-land breaks it), vessel-complete and the opt-in
// freshness-slo (fleet p99.9 propagation within a bound).
//
// Every run produces a replayable text trace (scenario options + fault plan +
// event log + violation); Replay() re-executes it bit-for-bit from the trace
// alone. shrink.h minimizes failing plans.

#ifndef SRC_DST_HARNESS_H_
#define SRC_DST_HARNESS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/stack.h"
#include "src/dst/fault_plan.h"
#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/p2p/vessel.h"
#include "src/util/status.h"

namespace configerator {

// Everything needed to reconstruct a scenario deterministically. Serializes
// to one "key=value ..." line in the trace header. The stack places one
// Zeus observer per cluster.
struct ScenarioOptions {
  uint64_t seed = 1;
  int regions = 2;
  int clusters_per_region = 2;
  int servers_per_cluster = 16;
  int members = 5;
  int proxies = 8;
  int keys = 5;
  int writes = 40;
  SimTime chaos_duration = 60 * kSimSecond;  // Faults land before this.
  SimTime settle = 30 * kSimSecond;          // Heal-to-convergence budget.
  bool enable_vessel = true;
  bool enable_gatekeeper = true;
  int64_t vessel_bytes = 24 << 20;
  // Freshness SLO (0 = disabled): after the final heal, the fleet-wide p99.9
  // config propagation latency (from the metrics registry) must be within
  // this bound. Serialized as slo_us.
  SimTime freshness_slo = 0;
  // Run the continuous-invariant sweep every Nth simulator event instead of
  // after every one. The sweep is O(proxies × keys); at 1k+ proxies checking
  // per event dominates the run without sharpening the invariants (a
  // violation is still caught, at worst stride-1 events later — and the final
  // pre-convergence sweep always runs).
  int check_stride = 1;

  std::string ToLine() const;
  // A trace's scenario line is input from outside the process: Parse
  // rejects a non-numeric value, and any count or time the harness cannot
  // place or run, with kInvalidArgument.
  static Result<ScenarioOptions> Parse(const std::string& line);
};

struct Violation {
  SimTime at = 0;
  std::string invariant;  // One of the catalog names above.
  std::string message;
  // Span tree (Tracer::DumpTree) of the commit implicated in the violation,
  // when one can be identified by zxid; "" otherwise. Embedded in the trace
  // between span-tree-begin/end markers (ignored by Replay).
  std::string span_tree;
};

struct RunResult {
  bool violated = false;
  Violation violation;
  // Replayable trace: scenario line + fault plan + event log + outcome.
  std::string trace;
  int64_t committed_zxid = 0;
  uint64_t published = 0;
  size_t vessel_completed = 0;
  NetStats net;
  uint64_t sim_events = 0;
};

class Harness {
 public:
  explicit Harness(const ScenarioOptions& options);

  // The concrete servers a FaultPlan may target in this scenario.
  FaultPlanShape shape();

  // Executes the scenario under `plan`. Single-shot: build a fresh Harness
  // per run (the shrinker does exactly that).
  RunResult Run(const FaultPlan& plan);

  // Runs the scenario and plan a trace records on a fresh Harness.
  // Determinism guarantee: replaying a failing run's trace reproduces the
  // same violation at the same sim time.
  static Result<RunResult> Replay(const std::string& trace_text);

  // --- Test hooks -----------------------------------------------------------

  const VesselSwarm* swarm() const { return swarm_.get(); }
  // The stack's metrics registry + commit tracer. Its proxies keep
  // staleness probes off, so instrumentation adds no network messages.
  Observability& obs() { return stack_.obs(); }

 private:
  void ScheduleWorkload();
  // Proposes `writes` through the stack, approves them as a reviewer other
  // than the author, and lands them: the automation path, with no canary.
  void LandChange(const std::string& what, std::vector<FileWrite> writes);
  // Force-lands `writes` through the landing strip, past review and CI.
  void ForceLand(const std::string& what, std::vector<FileWrite> writes);
  // Logs a landing outcome; a landed diff's writes join the not-torn
  // universe.
  void RecordLanding(const std::string& what, const ProposedDiff& diff,
                     const Result<ObjectId>& landed);
  void ApplyFault(const FaultEvent& event);
  void CorruptDisk(int index, const std::string& key);
  void SeedInconsistentCommit(const std::string& mode);
  void FinalHeal();
  void CheckContinuous();
  void CheckGatekeeper(size_t proxy_idx);
  void CheckConvergence();
  void CheckServedEqualsCompiled();
  void CheckFreshness();
  // Reference compilation of a delivered Gatekeeper config: the naive
  // declared-order evaluator (no stats, no reordering), so the concurrent
  // snapshot runtime is checked against plain evaluation. nullptr = the JSON
  // does not compile.
  const NaiveEvaluator* ReferenceProject(const std::string& json_text);
  // `zxid` >= 0 attaches that commit's span tree to the violation report.
  void Fail(const std::string& invariant, std::string message,
            int64_t zxid = -1);
  void Log(std::string line);
  std::string BuildTrace(const FaultPlan& plan) const;

  ScenarioOptions options_;
  ConfigManagementStack stack_;
  std::vector<ServerId> proxy_hosts_;
  ServerId storage_host_;
  // Per proxy: the application's view of the stack's proxy on that host.
  std::vector<AppConfigClient> apps_;
  std::vector<std::unique_ptr<GatekeeperRuntime>> gk_runtimes_;
  // Per proxy: the Gatekeeper JSON most recently delivered to it (""= none).
  std::vector<std::string> gk_delivered_;
  std::unique_ptr<VesselPublisher> vessel_pub_;
  std::unique_ptr<VesselSwarm> swarm_;

  std::string vessel_key_;
  std::vector<std::string> tracked_keys_;
  // Every value a landed commit wrote, per path — the "not torn" universe.
  std::map<std::string, std::set<std::string>> written_values_;

  // Continuous-invariant state: per proxy, the highest zxid seen per key.
  std::vector<std::map<std::string, int64_t>> last_seen_zxid_;
  std::map<std::string, std::unique_ptr<NaiveEvaluator>> gk_reference_cache_;
  const std::vector<UserContext> gk_users_;

  bool violated_ = false;
  Violation violation_;
  std::vector<std::string> log_;
  bool ran_ = false;
};

}  // namespace configerator

#endif  // SRC_DST_HARNESS_H_
