// ConfigManagementStack: the whole pipeline of the paper's Figure 3 wired
// together — author → compile (validators) → review (Phabricator) → CI
// (Sandcastle) → automated canary → landing strip → git tailer → Zeus →
// observers → per-server proxies → applications.
//
// The control plane (compiler, review, CI, landing strip) executes directly;
// the distribution plane (tailer, Zeus, proxies) and the canary run on the
// discrete-event simulator, so tests and benches can measure propagation in
// simulated seconds across a simulated fleet.

#ifndef SRC_CORE_STACK_H_
#define SRC_CORE_STACK_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/canary/canary.h"
#include "src/distribution/proxy.h"
#include "src/distribution/tailer.h"
#include "src/lang/compiler.h"
#include "src/obs/observability.h"
#include "src/pipeline/ci.h"
#include "src/pipeline/dependency.h"
#include "src/pipeline/landing_strip.h"
#include "src/pipeline/review.h"
#include "src/pipeline/risk.h"
#include "src/sim/network.h"
#include "src/vcs/repository.h"
#include "src/zeus/zeus.h"

namespace configerator {

// A change moving through the pipeline.
struct PendingChange {
  ProposedDiff diff;           // Source writes + regenerated JSON configs.
  int64_t review_id = 0;
  CiReport ci_report;
  RiskAssessment risk;         // History-based advisory (never blocking).
  std::vector<std::string> affected_entries;
  // Per changed CSL path, which top-level symbols the edit modifies (nullopt
  // = not statically comparable). Feeds risk fan-in and the canary scope.
  std::map<std::string, std::optional<std::set<std::string>>> changed_symbols;

  // Root of this change's commit trace (the stack's tracer follows the
  // change through CI, canary, landing, and the distribution tree).
  TraceContext trace{};

  // The symbol-level blast radius, for annotating the canary run.
  CanaryScope Scope() const;
};

class ConfigManagementStack {
 public:
  struct Options {
    int regions = 2;
    int clusters_per_region = 2;
    int servers_per_cluster = 20;
    size_t zeus_members = 5;
    int observers_per_cluster = 2;
    bool require_review = true;
    bool run_ci = true;
    CanaryService::Options canary;
    GitTailer::Options tailer;
    uint64_t seed = 1;
  };

  ConfigManagementStack() : ConfigManagementStack(Options{}) {}
  explicit ConfigManagementStack(Options options);

  // --- Authoring flow -------------------------------------------------------

  // Compiles the source writes (every affected entry), runs CI, and opens a
  // review. The returned change carries both the source writes and the
  // regenerated JSON configs (one commit updates both, like Fig 2's "one git
  // commit ensures consistency"). Fails on compile errors; CI failures are
  // reported in ci_report and block landing.
  Result<PendingChange> ProposeChange(const std::string& author,
                                      const std::string& message,
                                      std::vector<FileWrite> source_writes);

  // Review approval (reviewer must differ from the author).
  Status Approve(PendingChange* change, const std::string& reviewer);

  // Runs the automated canary on the simulator, then lands on success; fires
  // `done` with the commit id or the rejection. Drive the simulator to make
  // progress. `model` describes how the service behaves under the change.
  void TestAndLand(PendingChange change, const CanarySpec& spec,
                   ServiceModel* model,
                   std::function<void(Result<ObjectId>)> done);

  // Lands immediately (the automation/Mutator path, or after an external
  // canary). Enforces review/CI gates per Options.
  Result<ObjectId> LandNow(const PendingChange& change);

  // The canary spec associated with a config (§3.3): read from the
  // "<config_path>.canary.json" sibling at head if present, else the
  // two-phase default. Malformed stored specs are an error, not a fallback.
  Result<CanarySpec> CanarySpecFor(const std::string& config_path) const;

  // --- Consumption ----------------------------------------------------------

  // The proxy (creating it on first use) on a given server.
  ConfigProxy* ProxyOn(const ServerId& server);
  // Application client library view of a server.
  AppConfigClient ClientOn(const ServerId& server);
  // Subscribes an application on `server` to a config path.
  void SubscribeServer(const ServerId& server, const std::string& path,
                       ConfigProxy::UpdateCallback on_update = nullptr);

  // Runs the simulated world forward by `duration`.
  void RunFor(SimTime duration) { sim_.RunUntil(sim_.now() + duration); }

  // --- Component access -------------------------------------------------

  Simulator& sim() { return sim_; }
  Network& network() { return *network_; }
  Repository& repo() { return repo_; }
  ZeusEnsemble& zeus() { return *zeus_; }
  GitTailer& tailer() { return *tailer_; }
  CanaryService& canary() { return *canary_; }
  ReviewService& reviews() { return reviews_; }
  DependencyService& deps() { return deps_; }
  LandingStrip& landing_strip() { return *landing_strip_; }
  Sandcastle& sandcastle() { return *sandcastle_; }
  // The stack-wide metrics registry + commit tracer. Always attached: every
  // change proposed through the stack gets a trace; proxies created via
  // ProxyOn() record propagation metrics (staleness probes stay off — the
  // stack adds no background network traffic).
  Observability& obs() { return obs_; }
  const Topology& topology() const { return network_->topology(); }
  const Options& options() const { return options_; }

  // A config compiler reading from the current repo head, through
  // Sandcastle's shared unit cache.
  ConfigCompiler CompilerAtHead();

 private:
  struct ServerRuntime {
    std::unique_ptr<OnDiskCache> disk;
    std::unique_ptr<ConfigProxy> proxy;
  };

  int64_t NowMs() const { return sim_.now() / kSimMillisecond; }

  Options options_;
  Simulator sim_;
  Observability obs_;
  std::unique_ptr<Network> network_;
  Repository repo_;
  DependencyService deps_;
  RiskAdvisor risk_advisor_;  // Incrementally indexed on each proposal.
  ReviewService reviews_;
  std::unique_ptr<Sandcastle> sandcastle_;
  std::unique_ptr<LandingStrip> landing_strip_;
  std::unique_ptr<ZeusEnsemble> zeus_;
  std::unique_ptr<GitTailer> tailer_;
  std::unique_ptr<CanaryService> canary_;
  std::map<ServerId, ServerRuntime> servers_;
  uint64_t proxy_seed_ = 1000;
};

}  // namespace configerator

#endif  // SRC_CORE_STACK_H_
