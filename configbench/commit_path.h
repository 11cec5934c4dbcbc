// Drives one change through ConfigManagementStack: propose, approve, canary,
// land, then simulate until the workload says it has been delivered.
//
// Untraced, CommitPath calls the stack's facade (ProposeChange, Approve,
// TestAndLand). Traced, it performs each of those steps itself: it calls the
// same public functions the facade calls, in the same order and on the
// stack's own objects, with a span around each call — ConfigCompiler,
// Sandcastle's stages, SemanticDiffer, DiffChangedSymbols, RiskAdvisor,
// ReviewService, CanaryService, LandingStrip, AbstractInterpreter and the
// DependencyService updates. Both paths must produce the same changes; the
// run digest (verdicts, no-op flags, compiled-entry counts, head commit ids)
// checks that they do. The re-composition mirrors src/core/stack.cc and
// src/pipeline/ci.cc and must follow them when they change, until the
// program records these spans itself.

#ifndef CONFIGBENCH_COMMIT_PATH_H_
#define CONFIGBENCH_COMMIT_PATH_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "configbench/spans.h"
#include "configbench/workload.h"
#include "src/core/stack.h"
#include "src/lang/unit_cache.h"

namespace configbench {

using configerator::ConfigManagementStack;
using configerator::FileWrite;
using configerator::ObjectId;
using configerator::PendingChange;
using configerator::Result;
using configerator::SimTime;
using configerator::Status;

class CommitPath {
 public:
  explicit CommitPath(ConfigManagementStack* stack) : stack_(stack) {}

  // Switches to the traced re-composition. Brings its private state level
  // with the stack's at this point: the risk index covers the history so
  // far, and the CI unit cache holds every entry at head, as the stack's
  // Sandcastle cache does after the bulk import.
  void EnableTracing(SpanRecorder* spans);

  Result<PendingChange> Propose(const std::string& author,
                                const std::string& message,
                                std::vector<FileWrite> writes);
  Status Approve(PendingChange* change, const std::string& reviewer);
  void TestAndLand(PendingChange change, configerator::ServiceModel* model,
                   std::function<void(Result<ObjectId>)> done);

  // Adds the counts read once per phase: CSL unit- and output-cache hits of
  // the traced CI compiles, and the traces and spans the stack's tracer holds.
  void AddCounts(Stats* stats) const;

 private:
  configerator::CiReport RunTests(const configerator::ProposedDiff& diff);
  Status Validate(const std::string& path, const std::string& content) const;
  Result<ObjectId> LandNow(const PendingChange& change);

  ConfigManagementStack* stack_;
  SpanRecorder* spans_ = nullptr;
  // Traced-path stand-ins for the stack's private RiskAdvisor and
  // Sandcastle unit cache.
  configerator::RiskAdvisor risk_;
  std::unique_ptr<configerator::CompiledUnitCache> unit_cache_;
  // Cache counters once warm, so only the measured compiles are counted.
  size_t base_unit_hits_ = 0, base_unit_misses_ = 0;
  size_t base_output_hits_ = 0, base_output_misses_ = 0;
};

// Lands a workload's initial repository in one reviewed change through the
// facade, without a canary: the bulk import is set-up, not an operation.
Status LandImport(ConfigManagementStack* stack, std::vector<FileWrite> files);

// The outcome of one change driven to delivery.
struct CommitOutcome {
  bool landed = false;
  std::string error;  // Why the change did not land or was not delivered.
  bool noop = false;
  size_t compiled = 0;
  std::string head;   // Head commit id after landing.
  SimTime proposed_at = 0;
  SimTime landed_at = 0;
  double author_wait_ms = 0;
  double wall_ms = 0;  // Propose through delivery.
};

// Proposes `writes`, approves, runs the default canary and lands, then runs
// the simulator until `delivered()` holds. Records the op's root span (named
// `root`) and its layer spans when `spans` is set, and adds the change's
// per-layer counts to `stats`. Gives up (landed=false or an error) when the
// simulated clock passes a generous deadline, so a wedged world fails the
// op instead of hanging the run.
CommitOutcome DriveCommit(ConfigManagementStack* stack, CommitPath* path,
                          configerator::ServiceModel* model, SpanRecorder* spans,
                          const char* root, uint64_t op_id,
                          std::vector<FileWrite> writes,
                          const std::function<bool()>& delivered, Stats* stats);

}  // namespace configbench

#endif  // CONFIGBENCH_COMMIT_PATH_H_
