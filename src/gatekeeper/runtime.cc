#include "src/gatekeeper/runtime.h"

namespace configerator {

namespace {

// Thread-local snapshot cache: (runtime id, version, pinned snapshot). As
// long as the published version is unchanged, a reader thread reuses its
// pinned snapshot without touching the atomic shared_ptr (and its contended
// refcount) at all. Keyed by a globally unique runtime id so the cache can
// never confuse two runtimes (ids are never reused, unlike addresses).
struct TlsSnapCache {
  uint64_t runtime_id = 0;
  uint64_t version = 0;
  std::shared_ptr<const GatekeeperSnapshot> snap;
};
thread_local TlsSnapCache t_snap_cache;

std::atomic<uint64_t> g_next_runtime_id{1};

constexpr size_t kCountStripes = 8;

size_t CountStripe() {
  static std::atomic<size_t> next_slot{0};
  thread_local size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kCountStripes;
  return slot;
}

}  // namespace

GatekeeperRuntime::GatekeeperRuntime(const LaserStore* laser)
    : laser_(laser),
      id_(g_next_runtime_id.fetch_add(1, std::memory_order_relaxed)) {
  snapshot_ = std::make_shared<const GatekeeperSnapshot>(
      next_version_, GatekeeperSnapshot::ProjectMap{});
  published_version_.store(next_version_, std::memory_order_release);
  ++next_version_;
}

GatekeeperRuntime::~GatekeeperRuntime() = default;

const GatekeeperSnapshot* GatekeeperRuntime::AcquireSnapshot() const {
  TlsSnapCache& cache = t_snap_cache;
  uint64_t v = published_version_.load(std::memory_order_acquire);
  if (cache.runtime_id == id_ && cache.version >= v && cache.snap != nullptr) {
    return cache.snap.get();
  }
  // Version moved (or this thread never saw this runtime): re-pin. The
  // writer assigns snapshot_ before release-storing the version, so the
  // snapshot copied here is at least as new as `v`.
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    cache.snap = snapshot_;
  }
  cache.runtime_id = id_;
  cache.version = cache.snap->version();
  return cache.snap.get();
}

std::shared_ptr<const GatekeeperSnapshot> GatekeeperRuntime::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snapshot_;
}

bool GatekeeperRuntime::Check(const std::string& project,
                              const UserContext& user) const {
  check_counts_[CountStripe()].v.fetch_add(1, std::memory_order_relaxed);
  if (checks_counter_ != nullptr) {
    checks_counter_->Inc();
  }
  const GatekeeperSnapshot* snap = AcquireSnapshot();
  const CompiledProject* compiled = snap->Find(project);
  if (compiled == nullptr) {
    return false;
  }
  bool pass = compiled->Check(user, laser_);
  if (pass && passes_counter_ != nullptr) {
    passes_counter_->Inc();
  }
  return pass;
}

size_t GatekeeperRuntime::CheckMany(const std::string& project,
                                    const std::vector<UserContext>& users,
                                    std::vector<uint8_t>* results) const {
  const size_t n = users.size();
  if (results != nullptr) {
    results->assign(n, 0);
  }
  if (n == 0) {
    return 0;
  }
  check_counts_[CountStripe()].v.fetch_add(n, std::memory_order_relaxed);
  if (checks_counter_ != nullptr) {
    checks_counter_->Inc(n);
  }
  const GatekeeperSnapshot* snap = AcquireSnapshot();
  const CompiledProject* compiled = snap->Find(project);
  if (compiled == nullptr) {
    return 0;
  }
  size_t passed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (compiled->Check(users[i], laser_)) {
      ++passed;
      if (results != nullptr) {
        (*results)[i] = 1;
      }
    }
  }
  if (passed > 0 && passes_counter_ != nullptr) {
    passes_counter_->Inc(passed);
  }
  return passed;
}

uint64_t GatekeeperRuntime::check_count() const {
  uint64_t total = 0;
  for (const PaddedCounter& stripe : check_counts_) {
    total += stripe.v.load(std::memory_order_relaxed);
  }
  return total;
}

size_t GatekeeperRuntime::project_count() const {
  return AcquireSnapshot()->project_count();
}

bool GatekeeperRuntime::HasProject(const std::string& project) const {
  return AcquireSnapshot()->Find(project) != nullptr;
}

std::vector<std::vector<CompiledProject::RestraintStatsView>>
GatekeeperRuntime::StatsSnapshot(const std::string& project) const {
  std::shared_ptr<const GatekeeperSnapshot> snap = snapshot();
  const CompiledProject* compiled = snap->Find(project);
  if (compiled == nullptr) {
    return {};
  }
  return compiled->StatsView();
}

void GatekeeperRuntime::PublishLocked() {
  GatekeeperSnapshot::ProjectMap projects;
  for (const auto& [name, source] : sources_) {
    projects.emplace(name, source.compiled);
  }
  uint64_t version = next_version_++;
  auto snap =
      std::make_shared<const GatekeeperSnapshot>(version, std::move(projects));
  // Order matters: snapshot first, then version (release) — a reader that
  // observes the new version is guaranteed to copy a snapshot at least that
  // new (see AcquireSnapshot). The critical section is two refcount ops.
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snapshot_ = std::move(snap);
  }
  published_version_.store(version, std::memory_order_release);
  if (swaps_counter_ != nullptr) {
    swaps_counter_->Inc();
  }
  if (version_gauge_ != nullptr) {
    version_gauge_->Set(static_cast<double>(version));
  }
}

Status GatekeeperRuntime::LoadProject(const Json& config) {
  ASSIGN_OR_RETURN(CompiledProjectSpec spec, CompileProjectSpec(config));
  Install(std::move(spec));
  return OkStatus();
}

void GatekeeperRuntime::Install(CompiledProjectSpec spec) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::string name = spec.name;
  Source source;
  source.spec = spec;
  // New/replaced config: declared order, fresh stats (the restraint set may
  // have changed, so old statistics are not meaningful for it).
  source.compiled = std::make_shared<const CompiledProject>(
      std::move(spec), std::vector<std::vector<size_t>>{}, nullptr);
  sources_[name] = std::move(source);
  PublishLocked();
}

Status GatekeeperRuntime::RemoveProject(const std::string& project) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (sources_.erase(project) == 0) {
    return NotFoundError("no gatekeeper project '" + project + "'");
  }
  PublishLocked();
  return OkStatus();
}

Status GatekeeperRuntime::ApplyConfigUpdateInternal(const std::string& path,
                                                    const std::string& json_text) {
  std::optional<std::string> project = GatekeeperProjectAt(path);
  if (!project.has_value()) {
    return InvalidArgumentError("not a gatekeeper config path: " + path);
  }
  if (updates_counter_ != nullptr) {
    updates_counter_->Inc();
  }
  if (json_text.empty()) {
    // Tombstone: the project the path names is deleted.
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (sources_.erase(*project) > 0) {
      PublishLocked();
    }
    return OkStatus();
  }
  ASSIGN_OR_RETURN(CompiledProjectSpec spec, CompileProjectFile(path, json_text));
  Install(std::move(spec));
  return OkStatus();
}

Status GatekeeperRuntime::ApplyConfigUpdate(const std::string& path,
                                            const std::string& json_text) {
  return ApplyConfigUpdateInternal(path, json_text);
}

Status GatekeeperRuntime::ApplyConfigUpdate(const std::string& path,
                                            const std::string& json_text,
                                            int64_t zxid, SimTime now) {
  if (obs_ == nullptr || zxid < 0) {
    return ApplyConfigUpdateInternal(path, json_text);
  }
  // Causal join: the span parents at whatever trace the distribution layer
  // bound to this zxid, so the hot swap shows up in the commit's span tree.
  TraceContext parent = obs_->tracer.ZxidContext(zxid);
  TraceContext span =
      obs_->tracer.StartSpan(parent, "gatekeeper.snapshot_swap", host_, now);
  Status status = ApplyConfigUpdateInternal(path, json_text);
  obs_->tracer.EndSpan(span, now);
  return status;
}

void GatekeeperRuntime::Rebuild() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  for (auto& [name, source] : sources_) {
    std::vector<std::vector<size_t>> orders =
        CostBasedOrders(source.spec, source.compiled->stats()->Fold());
    // Same spec, same (shared) stats block, new evaluation order: learning
    // carries across the swap because stats are indexed by declared
    // position, not by order slot.
    source.compiled = std::make_shared<const CompiledProject>(
        source.spec, std::move(orders), source.compiled->stats());
  }
  if (folds_counter_ != nullptr) {
    folds_counter_->Inc();
  }
  PublishLocked();
}

void GatekeeperRuntime::AttachObservability(Observability* obs,
                                            const std::string& host) {
  obs_ = obs;
  host_ = host;
  checks_counter_ = obs->metrics.GetCounter("gk_checks_total");
  passes_counter_ = obs->metrics.GetCounter("gk_passes_total");
  updates_counter_ = obs->metrics.GetCounter("gk_config_updates_total");
  swaps_counter_ = obs->metrics.GetCounter("gk_snapshot_swaps_total");
  folds_counter_ = obs->metrics.GetCounter("gk_stats_folds_total");
  MetricLabels labels;
  if (!host.empty()) {
    labels.emplace("server", host);
  }
  version_gauge_ = obs->metrics.GetGauge("gk_snapshot_version", labels);
  version_gauge_->Set(
      static_cast<double>(published_version_.load(std::memory_order_acquire)));
}

}  // namespace configerator
