// fanout: raw JSON configs edited one at a time and pushed to a large fleet.
// No CSL runs, so the commit's cost moves to the distribution plane: the
// simulator, Zeus's fan-out tree and the subscribers.
//
// World: 2 regions x 8 clusters x 1600 servers, one Zeus observer per
// cluster. 1,000 raw configs in 20 directories are bulk committed, their
// sizes drawn from the Fig 8 fit (PopulationModel::SampleSize, capped at
// 16 KB) and their contents from GenerateConfigContent. The sizes are kept
// small because set-up pays for them: the first risk index line-diffs every
// imported file, and every observer keeps a copy of every config. Eight
// configs, each 400 bytes (the fit's median), are hot: a ProxyFleet of ~25k
// hosts on the stack's own network and Zeus subscribes to all eight, and so
// do 32 ConfigProxy servers on hosts of their own.
//
// Each commit applies one Table-2-mix edit (SampleEditKind/ApplyEdit) to one
// hot config's original content, takes the default canary and lands; the op
// ends when every fleet host and proxy holds it. Edits start from the
// original because ApplyEdit's section rewrites nest: edits stacked on edits
// grow a config without bound (to ~100 KB in 400 edits), so the cost of a
// commit would depend on how many came before it.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "configbench/commit_path.h"
#include "src/distribution/fleet.h"
#include "src/util/strings.h"
#include "src/workload/content.h"
#include "src/workload/population.h"

namespace configbench {
namespace {

using namespace configerator;

constexpr int kHot = 8;
constexpr int kHotBytes = 400;
constexpr int64_t kMaxConfigBytes = 16 * 1024;
constexpr int kDirectories = 20;
constexpr int kReadsPerCommit = 256;

class FanoutWorkload : public Workload {
 public:
  explicit FanoutWorkload(const WorkloadConfig& config)
      : config_(config), rng_(config.seed * 7919 + 3) {}

  void Setup(Stats* stats) override {
    ConfigManagementStack::Options options;
    options.seed = config_.seed;
    options.clusters_per_region = config_.smoke ? 2 : 8;
    options.servers_per_cluster = config_.smoke ? 100 : 1600;
    options.observers_per_cluster = 1;
    stack_ = std::make_unique<ConfigManagementStack>(options);
    path_ = std::make_unique<CommitPath>(stack_.get());
    service_ = std::make_unique<DefectServiceModel>(
        ConfigDefect::kNone, DefectServiceModel::Params{}, config_.seed);
    stack_->tailer().set_on_published([this](const std::string& path,
                                             int64_t zxid) {
      if (pending_ >= 0 && path == keys_[static_cast<size_t>(pending_)]) {
        published_zxid_ = zxid;
      }
    });

    // The repository: sizes from the Fig 8 fit, the hot configs at its median.
    const int configs = config_.smoke ? 200 : 1000;
    std::vector<int> hot_index;
    while (hot_index.size() < kHot) {
      int i = static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(configs)));
      if (std::find(hot_index.begin(), hot_index.end(), i) == hot_index.end()) {
        hot_index.push_back(i);
      }
    }
    std::vector<FileWrite> files;
    for (int i = 0; i < configs; ++i) {
      auto hot = std::find(hot_index.begin(), hot_index.end(), i);
      int64_t size =
          hot != hot_index.end()
              ? kHotBytes
              : std::min(kMaxConfigBytes,
                         PopulationModel::SampleSize(ConfigKind::kRaw, rng_));
      std::string path =
          StrFormat("raw/d%02d/cfg%04d.json", i % kDirectories, i);
      std::string content = GenerateConfigContent(size, rng_);
      if (hot != hot_index.end()) {
        keys_.push_back(path);
        originals_.push_back(content);
        contents_.push_back(content);
      }
      files.push_back({std::move(path), std::move(content)});
    }
    Status imported = LandImport(stack_.get(), std::move(files));
    if (!imported.ok()) {
      stats->Fail("import: " + imported.ToString());
      return;
    }

    // 32 proxies on servers 3-4 of every cluster; the fleet on 5 up to the
    // observers at the top, minus the tailer's host.
    const Topology& topology = stack_->topology();
    const int spc = options.servers_per_cluster;
    const ServerId tailer_host{0, 0, spc / 2};
    std::vector<ServerId> fleet_hosts;
    for (int r = 0; r < topology.regions(); ++r) {
      for (int c = 0; c < topology.clusters_per_region(); ++c) {
        proxy_hosts_.push_back(ServerId{r, c, 3});
        proxy_hosts_.push_back(ServerId{r, c, 4});
        for (int s = 5; s < spc - options.observers_per_cluster; ++s) {
          ServerId host{r, c, s};
          if (host != tailer_host) {
            fleet_hosts.push_back(host);
          }
        }
      }
    }
    fleet_ = std::make_unique<ProxyFleet>(&stack_->network(), &stack_->zeus(),
                                          std::move(fleet_hosts), config_.seed);
    proxy_values_.assign(proxy_hosts_.size() * kHot, std::string());
    for (size_t k = 0; k < kHot; ++k) {
      fleet_->SubscribeAll(keys_[k], 2 * kSimSecond);
      for (size_t p = 0; p < proxy_hosts_.size(); ++p) {
        stack_->SubscribeServer(
            proxy_hosts_[p], keys_[k],
            [this, p, k](const std::string&, const std::string& value, int64_t) {
              OnProxyUpdate(p, k, value);
            });
      }
      // One key's subscriptions settle before the next key's start, which
      // bounds the messages in flight (and the memory they hold).
      stack_->RunFor(3 * kSimSecond);
    }
    for (const ServerId& host : proxy_hosts_) {
      clients_.push_back(stack_->ClientOn(host));
    }
    const SimTime deadline = stack_->sim().now() + 2 * kSimMinute;
    while (!AllHoldInitial() && stack_->sim().now() < deadline) {
      stack_->RunFor(kSimSecond);
    }
    if (!AllHoldInitial()) {
      stats->Fail("fleet did not receive the hot configs");
      return;
    }

    Stats warmup;
    RunOp(&warmup);
    if (warmup.failed > 0) {
      stats->Fail("warm-up: " + warmup.errors.front());
    }
  }

  void EnableTracing(SpanRecorder* spans) override {
    spans_ = spans;
    path_->EnableTracing(spans);
  }
  void EndMeasure(Stats* stats) override { path_->AddCounts(stats); }

  bool RunOp(Stats* stats) override {
    ++op_id_;
    ++stats->attempted;
    pending_ = static_cast<int>(rng_.NextBounded(kHot));
    const size_t hot = static_cast<size_t>(pending_);
    std::string edited = contents_[hot];
    while (edited == contents_[hot]) {
      edited = ApplyEdit(originals_[hot], SampleEditKind(rng_), rng_);
    }
    contents_[hot] = std::move(edited);
    published_zxid_ = -1;
    proxies_due_ = proxy_hosts_.size();
    const uint64_t fleet0 = fleet_->updates_received();
    const uint64_t proxy0 = proxy_updates_;

    auto delivered = [&] {
      return published_zxid_ >= 0 && proxies_due_ == 0 &&
             fleet_->updates_received() - fleet0 >= fleet_->size();
    };
    CommitOutcome out = DriveCommit(
        stack_.get(), path_.get(), service_.get(), spans_, "commit", op_id_,
        {{keys_[hot], contents_[hot]}}, delivered, stats);
    stats->fleet_updates += fleet_->updates_received() - fleet0;
    stats->proxy_updates += proxy_updates_ - proxy0;
    if (!out.error.empty()) {
      stats->Fail(StrFormat("commit %llu: ",
                            static_cast<unsigned long long>(op_id_)) +
                  out.error);
      return false;
    }
    ++stats->ops;
    stats->op_ms.Add(out.wall_ms);
    stats->author_wait_ms.Add(out.author_wait_ms);

    SimTime done_at = last_proxy_apply_;
    for (size_t h = 0; h < fleet_->size(); ++h) {
      SimTime at = fleet_->updated_at(h, hot);
      done_at = std::max(done_at, at);
      stats->land_to_fleet_sim_s.Add(SimToSeconds(at - out.landed_at));
    }
    stats->save_to_fleet_sim_s.Add(SimToSeconds(done_at - out.proposed_at));
    CheckOracle(stats);
    pending_ = -1;
    return true;
  }

 private:
  void OnProxyUpdate(size_t proxy, size_t key, const std::string& value) {
    ScopedSpan span(spans_, "distribution.app_callback");
    ++proxy_updates_;
    proxy_values_[proxy * kHot + key] = value;
    if (static_cast<int>(key) == pending_ && value == contents_[key]) {
      --proxies_due_;
      last_proxy_apply_ = stack_->sim().now();
    }
  }

  bool AllHoldInitial() const {
    for (size_t k = 0; k < kHot; ++k) {
      if (fleet_->CountAtLeast(k, 1) != fleet_->size()) {
        return false;
      }
    }
    for (size_t i = 0; i < proxy_values_.size(); ++i) {
      if (proxy_values_[i] != contents_[i % kHot]) {
        return false;
      }
    }
    return true;
  }

  // Oracle: every fleet host reached the commit's zxid, and seeded reads
  // through the client library return the content this workload wrote.
  void CheckOracle(Stats* stats) {
    const size_t key = static_cast<size_t>(pending_);
    size_t reached = fleet_->CountAtLeast(key, published_zxid_);
    if (reached != fleet_->size()) {
      stats->Fail(StrFormat("%zu of %zu fleet hosts reached zxid %lld", reached,
                            fleet_->size(),
                            static_cast<long long>(published_zxid_)));
    }

    std::array<size_t, kReadsPerCommit> proxy{};
    std::array<size_t, kReadsPerCommit> hot{};
    std::array<const OnDiskCache::Entry*, kReadsPerCommit> got{};
    for (int i = 0; i < kReadsPerCommit; ++i) {
      proxy[i] = rng_.NextBounded(proxy_hosts_.size());
      hot[i] = rng_.NextBounded(kHot);
    }
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kReadsPerCommit; ++i) {
      got[i] = clients_[proxy[i]].Get(keys_[hot[i]]);
    }
    stats->AddReads(kReadsPerCommit, SecondsSince(start));
    for (int i = 0; i < kReadsPerCommit; ++i) {
      bool perturbed = config_.perturb && op_id_ == 2 && i == 0;
      if (got[i] == nullptr || got[i]->value != contents_[hot[i]] || perturbed) {
        stats->Fail(StrFormat("read %s on proxy %zu returned stale content",
                              keys_[hot[i]].c_str(), proxy[i]));
      }
    }
  }

  WorkloadConfig config_;
  Rng rng_;
  std::unique_ptr<ConfigManagementStack> stack_;
  std::unique_ptr<CommitPath> path_;
  std::unique_ptr<DefectServiceModel> service_;
  std::unique_ptr<ProxyFleet> fleet_;
  SpanRecorder* spans_ = nullptr;

  std::vector<std::string> keys_;       // The hot configs' paths.
  std::vector<std::string> originals_;  // Their content as imported.
  std::vector<std::string> contents_;   // Their current content.
  std::vector<ServerId> proxy_hosts_;
  std::vector<AppConfigClient> clients_;
  std::vector<std::string> proxy_values_;  // proxies x hot configs.
  uint64_t proxy_updates_ = 0;
  uint64_t op_id_ = 0;

  // The commit in flight.
  int pending_ = -1;  // Hot config index.
  int64_t published_zxid_ = -1;
  size_t proxies_due_ = 0;
  SimTime last_proxy_apply_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFanoutWorkload(const WorkloadConfig& config) {
  return std::make_unique<FanoutWorkload>(config);
}

}  // namespace configbench
