// serving: Gatekeeper checks and config reads on a frontend while its
// configs change underneath it — the read side of the paper (Fig 15), with
// no CSL compile or closure analysis in the loop.
//
// World: the default topology; 200 Gatekeeper projects in the Fig 5 DNF
// shape and 200 small raw configs, bulk-landed; one frontend ConfigProxy
// subscribed to all 400, whose callback feeds GatekeeperRuntime::
// ApplyConfigUpdate.
//
// Load: two reader threads call CheckMany (256 seeded users per batch) in a
// closed loop; these checks are the workload's ops. The main thread is an
// open loop: every 50 ms it lands one project edit through the full
// pipeline and simulates until the frontend applied it, rebuilds the
// runtime's evaluation order every 8th update, checks 256 seeded users
// against NaiveEvaluator, and reads 4,096 configs through AppConfigClient.
// Reads stay on the main thread because ConfigProxy is not thread-safe.

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "configbench/commit_path.h"
#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/util/strings.h"
#include "src/workload/content.h"

namespace configbench {
namespace {

using namespace configerator;

constexpr int kProjects = 200;
constexpr int kRawConfigs = 200;
constexpr int kReaders = 2;
constexpr size_t kBatch = 256;
constexpr size_t kBatchesPerReader = 16;
constexpr int kOracleUsers = 256;
constexpr int kReadsPerUpdate = 4096;
constexpr int kRebuildEvery = 8;
constexpr std::chrono::milliseconds kUpdatePeriod{50};

const char* const kCountries[] = {"US", "BR", "CA", "IN", "GB", "DE"};
const char* const kPlatforms[] = {"android", "ios", "www"};

std::string ProjectPath(int p) {
  return StrFormat("gatekeeper/proj%03d.json", p);
}

// One project in the Fig 5 shape: an employee rule, a three-restraint
// conjunction, a new-user rule and a hashed percentage rollout.
std::string ProjectJson(int p, Rng& rng) {
  size_t c1 = rng.NextBounded(6);
  size_t c2 = (c1 + 1 + rng.NextBounded(5)) % 6;
  return StrFormat(
      "{\"project\": \"proj%03d\", \"rules\": [\n"
      "  {\"restraints\": [{\"type\": \"employee\"}], \"pass_probability\": 1.0},\n"
      "  {\"restraints\": [{\"type\": \"country\", \"params\": {\"countries\": "
      "[\"%s\", \"%s\"]}},\n"
      "                  {\"type\": \"min_friend_count\", \"params\": "
      "{\"count\": %d}},\n"
      "                  {\"type\": \"platform\", \"params\": {\"platforms\": "
      "[\"%s\"]}}],\n"
      "   \"pass_probability\": %.2f},\n"
      "  {\"restraints\": [{\"type\": \"new_user\", \"params\": {\"max_days\": "
      "%d}},\n"
      "                  {\"type\": \"min_app_version\", \"params\": "
      "{\"version\": %d}}],\n"
      "   \"pass_probability\": 0.5},\n"
      "  {\"restraints\": [{\"type\": \"hash_range\", \"params\": {\"salt\": "
      "\"proj%03d\", \"lo\": 0.0, \"hi\": %.3f}}],\n"
      "   \"pass_probability\": 1.0}]}\n",
      p, kCountries[c1], kCountries[c2],
      static_cast<int>(rng.NextInRange(50, 300)),
      kPlatforms[rng.NextBounded(3)],
      static_cast<double>(rng.NextInRange(5, 95)) / 100.0,
      static_cast<int>(rng.NextInRange(7, 60)),
      static_cast<int>(rng.NextInRange(260, 340)), p,
      static_cast<double>(rng.NextInRange(10, 200)) / 1000.0);
}

UserContext MakeUser(Rng& rng) {
  UserContext user;
  user.user_id = static_cast<int64_t>(rng.NextBounded(1'000'000'000));
  user.country = kCountries[rng.NextBounded(6)];
  user.locale = "en_US";
  user.app = "fb4a";
  user.device = "pixel";
  user.platform = kPlatforms[rng.NextBounded(3)];
  user.is_employee = rng.NextBool(0.001);
  user.account_age_days = static_cast<int32_t>(rng.NextBounded(2000));
  user.friend_count = static_cast<int32_t>(rng.NextBounded(700));
  user.app_version = static_cast<int32_t>(rng.NextInRange(250, 350));
  return user;
}

class ServingWorkload : public Workload {
 public:
  explicit ServingWorkload(const WorkloadConfig& config)
      : config_(config), rng_(config.seed * 7919 + 4) {}

  ~ServingWorkload() override { StopReaders(); }
  ServingWorkload(const ServingWorkload&) = delete;
  ServingWorkload& operator=(const ServingWorkload&) = delete;

  void Setup(Stats* stats) override {
    ConfigManagementStack::Options options;
    options.seed = config_.seed;
    stack_ = std::make_unique<ConfigManagementStack>(options);
    path_ = std::make_unique<CommitPath>(stack_.get());
    service_ = std::make_unique<DefectServiceModel>(
        ConfigDefect::kNone, DefectServiceModel::Params{}, config_.seed);

    const int projects = config_.smoke ? 20 : kProjects;
    const int raws = config_.smoke ? 20 : kRawConfigs;
    std::vector<FileWrite> files;
    for (int p = 0; p < projects; ++p) {
      keys_.push_back(ProjectPath(p));
      names_.push_back(StrFormat("proj%03d", p));
      values_.push_back(ProjectJson(p, rng_));
      files.push_back({keys_.back(), values_.back()});
    }
    for (int i = 0; i < raws; ++i) {
      keys_.push_back(StrFormat("conf/small%03d.json", i));
      values_.push_back(GenerateConfigContent(400, rng_));
      files.push_back({keys_.back(), values_.back()});
    }
    Status imported = LandImport(stack_.get(), std::move(files));
    if (!imported.ok()) {
      stats->Fail("import: " + imported.ToString());
      return;
    }

    const ServerId frontend{0, 1, 5};
    applied_.assign(keys_.size(), false);
    for (size_t k = 0; k < keys_.size(); ++k) {
      stack_->SubscribeServer(
          frontend, keys_[k],
          [this, k](const std::string& key, const std::string& value, int64_t) {
            OnUpdate(k, key, value);
          });
    }
    client_ = std::make_unique<AppConfigClient>(stack_->ClientOn(frontend));
    const SimTime deadline = stack_->sim().now() + 2 * kSimMinute;
    while (applied_count_ < keys_.size() && stack_->sim().now() < deadline) {
      stack_->RunFor(kSimSecond);
    }
    if (applied_count_ < keys_.size() ||
        runtime_.project_count() != static_cast<size_t>(projects)) {
      stats->Fail("the frontend did not load every config");
      return;
    }

    Stats warmup;
    Update(&warmup);
    if (warmup.failed > 0) {
      stats->Fail("warm-up: " + warmup.errors.front());
    }
  }

  void EnableTracing(SpanRecorder* spans) override {
    spans_ = spans;
    path_->EnableTracing(spans);
  }

  void BeginMeasure(Stats*) override {
    stop_.store(false);
    for (Reader& reader : reader_stats_) {
      reader.checks.store(0);
      reader.batch_ms = Reservoir(21);
    }
    for (int t = 0; t < kReaders; ++t) {
      readers_.emplace_back([this, t] { ReadLoop(t); });
    }
    measure_start_ = Clock::now();
    scheduled_ = 0;
  }

  void EndMeasure(Stats* stats) override {
    StopReaders();
    for (const Reader& reader : reader_stats_) {
      stats->ops += reader.checks.load();
      stats->op_ms.Merge(reader.batch_ms);
    }
    path_->AddCounts(stats);
  }

  uint64_t OpsDone(const Stats&) const override {
    uint64_t checks = 0;
    for (const Reader& reader : reader_stats_) {
      checks += reader.checks.load(std::memory_order_relaxed);
    }
    return checks;
  }

  // One scheduled update (open loop: due every 50 ms from the start of the
  // measured phase, however long the previous one took).
  bool RunOp(Stats* stats) override {
    Clock::time_point due = measure_start_ + kUpdatePeriod * scheduled_++;
    std::this_thread::sleep_until(due);
    stats->generator_late_ms.Add(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    return Update(stats);
  }

 private:
  // Written by one reader thread; `checks` is read live by OpsDone. Aligned
  // so the two readers do not share a cache line.
  struct alignas(64) Reader {
    std::atomic<uint64_t> checks{0};
    Reservoir batch_ms{21};
  };

  void OnUpdate(size_t k, const std::string& key, const std::string& value) {
    ScopedSpan span(spans_, "distribution.app_callback");
    ++callbacks_;
    bool ok = true;
    if (key.starts_with("gatekeeper/")) {
      ScopedSpan apply(spans_, "gatekeeper.apply");
      ok = runtime_.ApplyConfigUpdate(key, value).ok();
    }
    if (ok && !applied_[k]) {
      applied_[k] = true;
      ++applied_count_;
    }
    if (static_cast<int>(k) == pending_ && value == values_[k]) {
      pending_ok_ = ok;
      pending_applied_at_ = stack_->sim().now();
    }
  }

  bool Update(Stats* stats) {
    ++op_id_;
    ++stats->attempted;
    const int p = static_cast<int>(rng_.NextBounded(names_.size()));
    values_[static_cast<size_t>(p)] = ProjectJson(p, rng_);
    pending_ = p;
    pending_applied_at_ = -1;
    pending_ok_ = false;
    const uint64_t version0 = runtime_.snapshot_version();
    const uint64_t callbacks0 = callbacks_;

    if (spans_ != nullptr) {
      spans_->BeginOp(op_id_, "update");
    }
    CommitOutcome out = DriveCommit(
        stack_.get(), path_.get(), service_.get(), spans_, "commit", op_id_,
        {{keys_[static_cast<size_t>(p)], values_[static_cast<size_t>(p)]}},
        [this] { return pending_applied_at_ >= 0; }, stats);
    if (op_id_ % kRebuildEvery == 0) {
      ScopedSpan span(spans_, "gatekeeper.rebuild");
      runtime_.Rebuild();
    }
    if (spans_ != nullptr) {
      spans_->End();
    }
    stats->snapshot_swaps += runtime_.snapshot_version() - version0;
    stats->proxy_updates += callbacks_ - callbacks0;
    pending_ = -1;
    if (!out.error.empty() || !pending_ok_) {
      stats->Fail(StrFormat("update %llu: ",
                            static_cast<unsigned long long>(op_id_)) +
                  (out.error.empty() ? "the runtime rejected it" : out.error));
      return false;
    }
    stats->author_wait_ms.Add(out.author_wait_ms);
    stats->save_to_fleet_sim_s.Add(
        SimToSeconds(pending_applied_at_ - out.proposed_at));
    stats->land_to_fleet_sim_s.Add(
        SimToSeconds(pending_applied_at_ - out.landed_at));
    CheckUsers(p, stats);
    CheckReads(stats);
    return true;
  }

  // Oracle: the live runtime agrees with the declared-order reference
  // evaluator on seeded users of the project just changed.
  void CheckUsers(int p, Stats* stats) {
    stats->attempted += kOracleUsers;
    auto parsed = Json::Parse(values_[static_cast<size_t>(p)]);
    auto naive = parsed.ok() ? NaiveEvaluator::FromJson(*parsed)
                             : Result<NaiveEvaluator>(parsed.status());
    if (!naive.ok()) {
      stats->Fail("oracle cannot load " + names_[static_cast<size_t>(p)]);
      return;
    }
    std::vector<UserContext> users;
    for (int i = 0; i < kOracleUsers; ++i) {
      users.push_back(MakeUser(rng_));
    }
    std::vector<uint8_t> live;
    runtime_.CheckMany(names_[static_cast<size_t>(p)], users, &live);
    int passed = 0;
    for (int i = 0; i < kOracleUsers; ++i) {
      bool expected = naive->Check(users[static_cast<size_t>(i)], nullptr);
      if (config_.perturb && op_id_ == 2 && i == 0) {
        expected = !expected;
      }
      if ((live[static_cast<size_t>(i)] != 0) != expected) {
        stats->Fail(StrFormat("user %lld on %s: runtime disagrees with the "
                              "reference evaluator",
                              static_cast<long long>(users[i].user_id),
                              names_[static_cast<size_t>(p)].c_str()));
      }
      passed += expected ? 1 : 0;
    }
    stats->Digest(StrFormat("users %d", passed));
  }

  // Oracle: reads through the client library return the last landed value.
  void CheckReads(Stats* stats) {
    std::vector<size_t> key(kReadsPerUpdate);
    for (size_t& k : key) {
      k = rng_.NextBounded(keys_.size());
    }
    std::vector<const OnDiskCache::Entry*> got(kReadsPerUpdate);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kReadsPerUpdate; ++i) {
      got[i] = client_->Get(keys_[key[i]]);
    }
    stats->AddReads(kReadsPerUpdate, SecondsSince(start));
    for (int i = 0; i < kReadsPerUpdate; ++i) {
      if (got[i] == nullptr || got[i]->value != values_[key[i]]) {
        stats->Fail("read of " + keys_[key[i]] + " is not the landed value");
      }
    }
  }

  // A reader thread: closed-loop CheckMany over seeded user batches and
  // projects, each batch timed.
  void ReadLoop(int t) {
    Rng rng(config_.seed * 104729 + static_cast<uint64_t>(t));
    std::vector<std::vector<UserContext>> batches(kBatchesPerReader);
    for (auto& batch : batches) {
      for (size_t i = 0; i < kBatch; ++i) {
        batch.push_back(MakeUser(rng));
      }
    }
    Reader& out = reader_stats_[static_cast<size_t>(t)];
    uint64_t passed = 0;
    for (size_t b = 0; !stop_.load(std::memory_order_relaxed); ++b) {
      const std::string& project = names_[rng.NextBounded(names_.size())];
      Clock::time_point start = Clock::now();
      passed += runtime_.CheckMany(project, batches[b % kBatchesPerReader],
                                   nullptr);
      out.batch_ms.Add(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
      out.checks.fetch_add(kBatch, std::memory_order_relaxed);
    }
    pass_sink_.fetch_add(passed, std::memory_order_relaxed);
  }

  void StopReaders() {
    stop_.store(true);
    for (std::thread& reader : readers_) {
      reader.join();
    }
    readers_.clear();
  }

  WorkloadConfig config_;
  Rng rng_;
  std::unique_ptr<ConfigManagementStack> stack_;
  std::unique_ptr<CommitPath> path_;
  std::unique_ptr<DefectServiceModel> service_;
  SpanRecorder* spans_ = nullptr;
  GatekeeperRuntime runtime_;

  std::vector<std::string> keys_;    // Projects first, then raw configs.
  std::vector<std::string> values_;  // Last landed content per key.
  std::vector<std::string> names_;   // Project names.
  std::unique_ptr<AppConfigClient> client_;
  std::vector<bool> applied_;
  size_t applied_count_ = 0;
  uint64_t callbacks_ = 0;
  uint64_t op_id_ = 0;

  int pending_ = -1;
  bool pending_ok_ = false;
  SimTime pending_applied_at_ = -1;

  Clock::time_point measure_start_;
  int64_t scheduled_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> pass_sink_{0};  // Keeps reader results observable.
  std::array<Reader, kReaders> reader_stats_;
  std::vector<std::thread> readers_;  // Last: joined before the rest go.
};

}  // namespace

std::unique_ptr<Workload> MakeServingWorkload(const WorkloadConfig& config) {
  return std::make_unique<ServingWorkload>(config);
}

}  // namespace configbench
