// The concurrent Gatekeeper runtime for a frontend server (paper §4): holds
// the live projects and answers gk_check() from any number of worker threads
// while config updates are applied live underneath them.
//
// Design (RCU-style shared snapshot):
//   * All threads share one immutable GatekeeperSnapshot. Check()/CheckMany()
//     are const and thread-safe: they acquire the current snapshot, evaluate
//     against it, and record execution statistics into striped relaxed
//     atomics — no locks, no in-place mutation, readers never block.
//   * Config updates (LoadProject / RemoveProject / ApplyConfigUpdate)
//     compile a *new* snapshot and publish it RCU-style: a brief
//     pointer-swap critical section followed by a release store of the
//     published version. In-flight checks finish on the old snapshot; the
//     old snapshot is freed when its last reader drops it. Writers serialize
//     on a mutex; snapshot versions are strictly monotone.
//   * Cost-based restraint reordering is an epoch job, and Rebuild() is the
//     only place an evaluation order changes: it folds the striped
//     statistics and publishes a snapshot whose per-rule evaluation orders
//     are recomputed from the fold (cheap, usually-false restraints first).
//     A loaded or replaced project starts in declared order, so a runtime
//     that never rebuilds is the declared-order ablation. Unchanged projects
//     keep their stats blocks across swaps, so learning survives both epochs
//     and unrelated config updates.
//   * A hot thread caches the snapshot pointer thread-locally and
//     revalidates it against the published version with one acquire load per
//     check, so the steady-state hot path does no reference counting and
//     takes no lock at all; re-pinning after a swap costs one brief
//     pointer-copy lock (two refcount ops — not std::atomic<shared_ptr>,
//     whose libstdc++ spinlock ThreadSanitizer cannot model). CheckMany()
//     additionally amortizes the snapshot acquire, the project lookup, and
//     the die-salt hash over a whole batch of users.
//
// Observability (opt-in via AttachObservability): gk_checks_total /
// gk_passes_total / gk_config_updates_total counters on the hot path,
// gk_snapshot_swaps_total + gk_stats_folds_total + a gk_snapshot_version
// gauge on the writer path, and — when a config update carries a zxid — a
// "gatekeeper.snapshot_swap" span parented at that commit's trace, so a
// proxy-applied update shows up in the commit's causal span tree.

#ifndef SRC_GATEKEEPER_RUNTIME_H_
#define SRC_GATEKEEPER_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/gatekeeper/snapshot.h"
#include "src/obs/observability.h"

namespace configerator {

class GatekeeperRuntime {
 public:
  explicit GatekeeperRuntime(const LaserStore* laser = nullptr);
  ~GatekeeperRuntime();

  GatekeeperRuntime(const GatekeeperRuntime&) = delete;
  GatekeeperRuntime& operator=(const GatekeeperRuntime&) = delete;

  // --- Writer path (serialized; safe to call while readers check) ----------

  // Loads or replaces a project from its JSON config and publishes a new
  // snapshot. Other projects' compiled form and learned stats are untouched.
  Status LoadProject(const Json& config);
  Status RemoveProject(const std::string& project);

  // Hook for the distribution layer: config updates at a gatekeeper path
  // (GatekeeperPath(project), "gatekeeper/<project>.json") hot-swap the
  // snapshot; an empty value removes the project the path names. A config
  // whose "project" differs from its path's is rejected and the old project
  // kept, as for any bad update. The traced overload parents a
  // "gatekeeper.snapshot_swap" span at the commit bound to `zxid` (no-op
  // when unattached or the zxid was never traced).
  Status ApplyConfigUpdate(const std::string& path, const std::string& json_text);
  Status ApplyConfigUpdate(const std::string& path, const std::string& json_text,
                           int64_t zxid, SimTime now);

  // Epoch job: folds the striped stats of every project and publishes a
  // snapshot with recomputed cost-based evaluation orders. Call it
  // periodically from a maintenance thread (or between request batches);
  // never required for correctness.
  void Rebuild();

  // --- Read path (const, thread-safe, lock-free) ----------------------------

  // Figure 4's gk_check(). Unknown project → false (fail closed: an
  // undistributed project gates nothing on).
  bool Check(const std::string& project, const UserContext& user) const;

  // Batch check: one snapshot acquire + one project lookup for the whole
  // batch. Returns the number of passing users; if `results` is non-null it
  // is resized to users.size() with the per-user outcomes.
  size_t CheckMany(const std::string& project,
                   const std::vector<UserContext>& users,
                   std::vector<uint8_t>* results) const;

  // Current snapshot (acquire). Holding the returned shared_ptr pins that
  // version; meant for tests, tools, and stats inspection — not the hot path.
  std::shared_ptr<const GatekeeperSnapshot> snapshot() const;

  // Version of the most recently published snapshot. Strictly monotone.
  uint64_t snapshot_version() const {
    return published_version_.load(std::memory_order_acquire);
  }

  // Folded per-restraint stats of `project` in its current evaluation order;
  // empty if unknown.
  std::vector<std::vector<CompiledProject::RestraintStatsView>> StatsSnapshot(
      const std::string& project) const;

  // Total Check()/CheckMany() evaluations, folded across thread stripes.
  // Exact once callers have quiesced.
  uint64_t check_count() const;

  size_t project_count() const;
  bool HasProject(const std::string& project) const;

  // Opt-in metrics + tracing. Hot-path cost is two relaxed increments
  // through cached pointers — the Figure-15 bench ablates this and demands
  // < 5% overhead. `host` labels the per-server gk_snapshot_version gauge
  // and stamps snapshot-swap spans (empty = unlabeled).
  void AttachObservability(Observability* obs, const std::string& host = "");

 private:
  struct Source {
    CompiledProjectSpec spec;
    // The live compiled form (shared with published snapshots), so updates
    // to *other* projects can reuse it — stats block included.
    std::shared_ptr<const CompiledProject> compiled;
  };

  // Writer helpers. Install() and ApplyConfigUpdateInternal() take
  // writer_mu_; callers of PublishLocked() hold it. Install() publishes
  // `spec` in declared order with fresh stats.
  void Install(CompiledProjectSpec spec);
  void PublishLocked();
  Status ApplyConfigUpdateInternal(const std::string& path,
                                   const std::string& json_text);

  // Hot-path snapshot access: thread-locally cached raw pointer, revalidated
  // against published_version_ with one acquire load. The pointer stays
  // valid for the duration of the calling function (the thread-local cache
  // holds a reference); do not store it.
  const GatekeeperSnapshot* AcquireSnapshot() const;

  const LaserStore* laser_;
  const uint64_t id_;  // Globally unique, for the thread-local cache.

  // Published state. Steady-state readers only load published_version_; the
  // shared_ptr itself is copied under snap_mu_, and only when the version
  // moved (or a thread sees this runtime for the first time). Writers
  // assign snapshot_ first, then release-store the version, so a reader
  // that re-pins after observing version v always gets a snapshot >= v.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const GatekeeperSnapshot> snapshot_;  // Guarded by snap_mu_.
  std::atomic<uint64_t> published_version_{0};

  // Writers: serialized.
  mutable std::mutex writer_mu_;
  std::map<std::string, Source> sources_;
  uint64_t next_version_ = 1;

  // Striped check counter (check_count() folds it). Stripe count matches
  // CountStripe() in runtime.cc.
  struct alignas(64) PaddedCounter {
    std::atomic<uint64_t> v{0};
  };
  mutable std::array<PaddedCounter, 8> check_counts_;

  // Observability (nullptr = unattached; near-zero overhead).
  Observability* obs_ = nullptr;
  std::string host_;
  Counter* checks_counter_ = nullptr;
  Counter* passes_counter_ = nullptr;
  Counter* updates_counter_ = nullptr;
  Counter* swaps_counter_ = nullptr;
  Counter* folds_counter_ = nullptr;
  Gauge* version_gauge_ = nullptr;
};

}  // namespace configerator

#endif  // SRC_GATEKEEPER_RUNTIME_H_
