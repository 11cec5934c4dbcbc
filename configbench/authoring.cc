// author_value and author_noop: one author in a closed loop, each commit
// proposed, reviewed, canaried, landed and delivered before the next.
//
// World: the default 2x2x20 topology; the authoring repository bulk-landed;
// 40 ConfigProxy servers, each subscribed to all 800 generated
// svc/entryNNN.json configs.
//
// author_value bumps one module's BASE_PORT per commit: compile, closure
// re-analysis, invariants and the post-land dependency refresh all run, and
// the moved entries are delivered to every subscriber.
// author_noop edits only a comment in a module or an entry: a provable
// no-op, so closure re-analysis and invariants are skipped and nothing is
// distributed, while lexing, parsing, semdiff's certificate, recompiles and
// the small canary still run.

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "configbench/authoring_repo.h"
#include "configbench/commit_path.h"

namespace configbench {
namespace {

using namespace configerator;

constexpr int kModules = SyntheticRepo::kModules;
constexpr int kReadsPerCommit = 256;

class AuthoringWorkload : public Workload {
 public:
  AuthoringWorkload(const WorkloadConfig& config, bool noop)
      : config_(config),
        noop_(noop),
        rng_(config.seed * 7919 + (noop ? 2 : 1)),
        entries_(config.smoke ? 160 : SyntheticRepo::kEntries),
        ports_(entries_) {}

  void Setup(Stats* stats) override {
    ConfigManagementStack::Options options;
    options.seed = config_.seed;
    stack_ = std::make_unique<ConfigManagementStack>(options);
    path_ = std::make_unique<CommitPath>(stack_.get());
    service_ = std::make_unique<DefectServiceModel>(
        ConfigDefect::kNone, DefectServiceModel::Params{}, config_.seed);
    stack_->tailer().set_on_published([this](const std::string& path,
                                             int64_t zxid) {
      published_zxid_[path] = zxid;
      if (path == pending_source_) {
        published_at_ = stack_->sim().now();
      }
    });

    Status imported = LandImport(stack_.get(), BuildAuthoringRepo(entries_));
    if (!imported.ok()) {
      stats->Fail("import: " + imported.ToString());
      return;
    }

    const int proxies_per_cluster = config_.smoke ? 2 : 10;
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        for (int s = 3; s < 3 + proxies_per_cluster; ++s) {
          hosts_.push_back(ServerId{r, c, s});
        }
      }
    }
    for (int e = 0; e < entries_; ++e) {
      keys_.push_back(EntryOutputPath(e));
    }
    pending_mask_.assign(keys_.size(), false);
    cells_.assign(hosts_.size() * keys_.size(), Cell{});
    for (size_t p = 0; p < hosts_.size(); ++p) {
      for (int e = 0; e < entries_; ++e) {
        stack_->SubscribeServer(
            hosts_[p], keys_[static_cast<size_t>(e)],
            [this, p, e](const std::string&, const std::string& value,
                         int64_t zxid) { OnUpdate(p, e, value, zxid); });
      }
      clients_.push_back(stack_->ClientOn(hosts_[p]));
      // Letting each proxy's subscriptions settle before the next proxy's
      // keeps the event queue short; it changes no simulated outcome.
      stack_->RunFor(100 * kSimMillisecond);
    }
    const SimTime deadline = stack_->sim().now() + 2 * kSimMinute;
    while (received_ < cells_.size() && stack_->sim().now() < deadline) {
      stack_->RunFor(kSimSecond);
    }
    if (received_ < cells_.size()) {
      stats->Fail("subscribers did not receive every config");
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
    std::vector<FileWrite> writes = noop_ ? NextNoop() : NextValue();
    const uint64_t callbacks0 = callbacks_;
    CommitOutcome out = DriveCommit(
        stack_.get(), path_.get(), service_.get(), spans_, "commit", op_id_,
        std::move(writes), [this] { return Delivered(); }, stats);
    stats->proxy_updates += callbacks_ - callbacks0;
    if (!out.error.empty()) {
      stats->Fail(StrFormat("commit %llu: ",
                            static_cast<unsigned long long>(op_id_)) +
                  out.error);
      return false;
    }
    ++stats->ops;
    stats->op_ms.Add(out.wall_ms);
    stats->author_wait_ms.Add(out.author_wait_ms);

    // Save-to-fleet on the simulated clock: to the last subscriber's apply,
    // or — when no subscribed config changed — to the tailer publishing the
    // commit to Zeus.
    SimTime done_at = published_at_;
    for (int e : pending_) {
      for (size_t p = 0; p < hosts_.size(); ++p) {
        SimTime at = cell(p, e).at;
        done_at = std::max(done_at, at);
        stats->land_to_fleet_sim_s.Add(SimToSeconds(at - out.landed_at));
      }
    }
    stats->save_to_fleet_sim_s.Add(SimToSeconds(done_at - out.proposed_at));
    CheckReads(stats);
    return true;
  }

 private:
  // What one subscriber last received for one entry.
  struct Cell {
    int port = -1;
    int64_t zxid = -1;
    SimTime at = -1;
    uint64_t satisfied_op = 0;  // Op whose expected port this cell holds.
  };

  Cell& cell(size_t proxy, int entry) {
    return cells_[proxy * keys_.size() + static_cast<size_t>(entry)];
  }

  void OnUpdate(size_t proxy, int entry, const std::string& value,
                int64_t zxid) {
    ScopedSpan span(spans_, "distribution.app_callback");
    Cell& c = cell(proxy, entry);
    if (c.port < 0) {
      ++received_;
    }
    ++callbacks_;
    c.port = ParsePort(value);
    c.zxid = zxid;
    c.at = stack_->sim().now();
    if (pending_mask_[static_cast<size_t>(entry)] && c.satisfied_op != op_id_ &&
        c.port == ports_.EntryPort(entry)) {
      c.satisfied_op = op_id_;
      --unsatisfied_;
    }
  }

  bool Delivered() const {
    return noop_ ? published_at_ >= 0 : unsatisfied_ == 0;
  }

  void StartPending(std::string source, std::vector<int> moved) {
    pending_source_ = std::move(source);
    published_at_ = -1;
    pending_mask_.assign(keys_.size(), false);
    for (int e : moved) {
      pending_mask_[static_cast<size_t>(e)] = true;
    }
    unsatisfied_ = moved.size() * hosts_.size();
    pending_ = std::move(moved);
  }

  // One module's BASE_PORT moves by 1..50 (wrapping well below kMaxPort).
  std::vector<FileWrite> NextValue() {
    int m = 0;
    do {
      m = static_cast<int>(rng_.NextBounded(kModules));
    } while (IsChained(m));
    int bump = (ports_.bump(m) + 1 + static_cast<int>(rng_.NextBounded(50))) %
               4000;
    std::string path = SyntheticRepo::ModulePath(m);
    StartPending(path, ports_.SetBump(m, bump));
    return {{path, SyntheticRepo::ModuleSource(m, 0, bump)}};
  }

  // A new comment line in one module or one entry.
  std::vector<FileWrite> NextNoop() {
    ++revision_;
    std::string path;
    std::string content;
    if (rng_.NextBool(0.5)) {
      int m = static_cast<int>(rng_.NextBounded(kModules));
      path = SyntheticRepo::ModulePath(m);
      content = SyntheticRepo::ModuleSource(m, revision_);
    } else {
      int e = static_cast<int>(rng_.NextBounded(keys_.size()));
      path = SyntheticRepo::EntryPath(e);
      content = StrFormat("# rev %d\n", revision_) + SyntheticRepo::EntrySource(e);
    }
    StartPending(path, {});
    return {{path, content}};
  }

  // Oracle: seeded reads through the client library return the modelled
  // port, and every subscriber of a moved entry holds its new port at the
  // zxid the tailer published it with, or a later one.
  void CheckReads(Stats* stats) {
    std::array<size_t, kReadsPerCommit> proxy{};
    std::array<int, kReadsPerCommit> entry{};
    std::array<const OnDiskCache::Entry*, kReadsPerCommit> got{};
    for (int i = 0; i < kReadsPerCommit; ++i) {
      proxy[i] = rng_.NextBounded(hosts_.size());
      entry[i] = static_cast<int>(rng_.NextBounded(keys_.size()));
    }
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kReadsPerCommit; ++i) {
      got[i] = clients_[proxy[i]].Get(keys_[static_cast<size_t>(entry[i])]);
    }
    stats->AddReads(kReadsPerCommit, SecondsSince(start));
    for (int i = 0; i < kReadsPerCommit; ++i) {
      int expected = ports_.EntryPort(entry[i]);
      if (config_.perturb && op_id_ == 2 && i == 0) {
        ++expected;
      }
      int actual = got[i] == nullptr ? -1 : ParsePort(got[i]->value);
      if (actual != expected) {
        stats->Fail(StrFormat("read %s on server %zu: port %d, expected %d",
                              keys_[static_cast<size_t>(entry[i])].c_str(),
                              proxy[i], actual, expected));
      }
    }
    for (int e : pending_) {
      const std::string& key = keys_[static_cast<size_t>(e)];
      auto published = published_zxid_.find(key);
      for (size_t p = 0; p < hosts_.size(); ++p) {
        const Cell& c = cell(p, e);
        if (c.satisfied_op != op_id_ || published == published_zxid_.end() ||
            c.zxid < published->second) {
          stats->Fail(StrFormat("server %zu does not hold %s at zxid %lld",
                                p, key.c_str(), static_cast<long long>(c.zxid)));
        }
      }
    }
  }

  WorkloadConfig config_;
  bool noop_;
  Rng rng_;
  std::unique_ptr<ConfigManagementStack> stack_;
  std::unique_ptr<CommitPath> path_;
  std::unique_ptr<DefectServiceModel> service_;
  SpanRecorder* spans_ = nullptr;

  std::vector<ServerId> hosts_;
  std::vector<AppConfigClient> clients_;
  const int entries_;            // Entries landed (fewer in the smoke test).
  std::vector<std::string> keys_;  // Their generated configs' paths.
  std::vector<Cell> cells_;        // hosts x entries.
  size_t received_ = 0;      // Cells that hold any value.
  uint64_t callbacks_ = 0;

  PortModel ports_;
  int revision_ = 0;
  uint64_t op_id_ = 0;

  // The commit in flight.
  std::string pending_source_;
  std::vector<int> pending_;         // Entries whose port moves.
  std::vector<bool> pending_mask_;
  size_t unsatisfied_ = 0;           // (subscriber, entry) pairs still due.
  SimTime published_at_ = -1;        // Tailer published the edited source.
  std::map<std::string, int64_t> published_zxid_;  // Last publish per path.
};

}  // namespace

std::unique_ptr<Workload> MakeAuthoringWorkload(const WorkloadConfig& config,
                                                bool noop) {
  return std::make_unique<AuthoringWorkload>(config, noop);
}

}  // namespace configbench
