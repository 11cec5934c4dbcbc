// Automated canary testing (paper §3.3): a config change is deployed to a
// small set of production servers first, held there while health metrics are
// compared against the rest of the fleet, then promoted phase by phase
// (e.g. 20 servers → a full cluster) and finally handed to the landing strip
// for commit — or rolled back automatically.
//
// The §6.4 incident taxonomy drives the service model here: Type I errors
// are visible immediately on any server; Type II (load-related) issues only
// materialize when a large fraction of the fleet runs the config — which is
// exactly why the paper added a cluster-sized canary phase; Type III are
// valid configs that trigger latent code bugs (crashes) probabilistically.

#ifndef SRC_CANARY_CANARY_H_
#define SRC_CANARY_CANARY_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace configerator {

// One testing phase of a canary spec.
struct CanaryPhase {
  std::string name;
  size_t num_servers = 20;
  SimTime hold_time = 2 * kSimMinute;
  // Health predicates: canary group vs control group.
  double max_error_rate_ratio = 1.5;   // canary_err <= ratio * control_err.
  double max_latency_ratio = 1.5;      // canary_lat <= ratio * control_lat.
  double max_crash_rate = 0.001;       // Absolute crash-rate ceiling.
};

struct CanarySpec {
  std::vector<CanaryPhase> phases;

  // The paper's shape: phase 1 = 20 servers for ~2 minutes, phase 2 = a full
  // cluster (thousands of servers) for ~8 minutes — about ten minutes total.
  static CanarySpec Default(size_t cluster_size = 2000);
  // The pre-incident spec: only the 20-server phase (used by the §6.4
  // ablation to show the load-issue escape).
  static CanarySpec SmallOnly();

  // Canary specs are themselves configs ("a config is associated with a
  // canary spec" — §3.3): they serialize to/from JSON stored next to the
  // config they guard.
  //
  //   {"phases": [{"name": "phase1", "num_servers": 20,
  //                "hold_time_s": 120, "max_error_rate_ratio": 1.5,
  //                "max_latency_ratio": 1.5, "max_crash_rate": 0.001}, ...]}
  Json ToJson() const;
  static Result<CanarySpec> FromJson(const Json& json);
};

// The statically-computed blast radius of the change under canary: which
// entry configs the edit can actually reach (symbol-pruned when slices are
// available) and, per changed source file, which top-level symbols changed.
// Purely an annotation — the canary holds/promotes the same way — but it is
// logged with the run and kept for the operator UI, so "20 servers testing a
// change that reaches 40% of the fleet's configs" is visible before promote.
struct CanaryScope {
  std::vector<std::string> affected_entries;
  std::map<std::string, std::set<std::string>> changed_symbols;  // By path.
  // True when the entry list is a sound upper bound (every slice was sound);
  // false means some dependency edges were file-level over-approximations.
  bool symbol_pruned = false;
  // Semantic diff annotations: "file:symbol" -> "old -> new" abstract value
  // bounds for the symbols the change moves (value-delta and control-shift
  // impacts). The operator sees *what interval the value crosses* while the
  // canary holds, not just which files changed.
  std::map<std::string, std::string> value_deltas;
  // Cross-config invariant annotations from the Sandcastle run: violated
  // predicates carry their concrete counterexample witness (these normally
  // block landing — they appear here only when an operator force-lands), and
  // in-jeopardy predicates warn that the canary is the last line of defense
  // for a property that lost its abstract proof. "predicate" -> rendered
  // witness/detail.
  std::map<std::string, std::string> invariant_notes;

  // One-line rendering for logs and review notes.
  std::string Describe() const;
};

// What the canary service measures for a server group over a hold window.
struct GroupMetrics {
  double error_rate = 0;  // Errors per request.
  double latency_ms = 0;
  double crash_rate = 0;  // Fraction of group instances that crashed.
};

// Models how a service behaves under a candidate config. The canary service
// asks for canary-group and control-group metrics at each phase.
class ServiceModel {
 public:
  virtual ~ServiceModel() = default;

  // `canary_group` selects which population to measure; `group_size` is the
  // number of servers running the candidate; `fleet_size` the whole fleet.
  virtual GroupMetrics Measure(bool canary_group, size_t group_size,
                               size_t fleet_size) = 0;
};

// Defect classes from the §6.4 incident breakdown.
enum class ConfigDefect {
  kNone,
  kImmediateError,  // Type I: obvious errors, visible on any server.
  kLoadSensitive,   // Type II: pathologies that scale with deployed fraction.
  kLatentCrash,     // Type III: valid config exposing a code bug.
};

std::string_view ConfigDefectName(ConfigDefect defect);

// Concrete ServiceModel with a single injected defect and measurement noise
// (small canary groups are noisy, so marginal defects can escape — as they
// do in production).
class DefectServiceModel : public ServiceModel {
 public:
  struct Params {
    double base_error_rate = 0.001;
    double base_latency_ms = 10.0;
    double noise_fraction = 0.05;  // Relative gaussian noise per measurement.
    double severity = 1.0;         // Defect strength multiplier.
  };

  DefectServiceModel(ConfigDefect defect, Params params, uint64_t seed);

  GroupMetrics Measure(bool canary_group, size_t group_size,
                       size_t fleet_size) override;

  ConfigDefect defect() const { return defect_; }

 private:
  double Noisy(double value, size_t group_size);

  ConfigDefect defect_;
  Params params_;
  Rng rng_;
};

// The canary service itself: runs a spec's phases on the simulator clock and
// reports pass (OK) or fail (kRejected with the phase and reason).
class CanaryService {
 public:
  struct Options {
    size_t fleet_size = 200'000;
  };

  CanaryService(Simulator* sim, Options options) : sim_(sim), options_(options) {}
  explicit CanaryService(Simulator* sim) : CanaryService(sim, Options{}) {}

  // Runs all phases; `done` fires with OK if every phase passed. The model
  // must outlive the test.
  void RunTest(const CanarySpec& spec, ServiceModel* model,
               std::function<void(Status)> done);

  // Same, annotated with the change's statically-computed blast radius. The
  // scope is logged with the run and retained (last_scope()) for operator
  // tooling; it does not alter pass/fail judgement.
  void RunTest(const CanarySpec& spec, const CanaryScope& scope,
               ServiceModel* model, std::function<void(Status)> done);

  // The scope of the most recently started annotated test, if any.
  const std::optional<CanaryScope>& last_scope() const { return last_scope_; }

  // Tests currently in flight.
  size_t active_tests() const { return active_tests_; }

 private:
  // Time to temporarily deploy a config to a phase's servers.
  static constexpr SimTime kDeployTime = 10 * kSimSecond;

  void RunPhase(std::shared_ptr<const CanarySpec> spec, size_t phase_idx,
                ServiceModel* model, std::function<void(Status)> done);
  static Status EvaluatePhase(const CanaryPhase& phase,
                              const GroupMetrics& canary,
                              const GroupMetrics& control);

  Simulator* sim_;
  Options options_;
  size_t active_tests_ = 0;
  std::optional<CanaryScope> last_scope_;
};

}  // namespace configerator

#endif  // SRC_CANARY_CANARY_H_
