#include "src/dst/harness.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <optional>
#include <sstream>
#include <utility>

#include "src/json/json.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

constexpr char kTraceHeader[] = "# dst-trace v1";
constexpr char kAuthor[] = "dst";
constexpr char kReviewer[] = "dst-reviewer";
constexpr char kGatekeeperKey[] = "gatekeeper/dst_rollout.json";
constexpr char kVesselName[] = "bigcfg";

// The CSL service config: a module holding a constant the workload bumps,
// and the entry that exports from it to kSvcKey.
constexpr char kSvcModule[] = "cfg/svc.cinc";
constexpr char kSvcEntry[] = "cfg/svc.cconf";
constexpr char kSvcKey[] = "cfg/svc.json";
constexpr char kSvcEntrySource[] =
    "import_python(\"cfg/svc.cinc\", \"*\")\n"
    "export_if_last({\"limit\": SVC_LIMIT, \"burst\": SVC_LIMIT * 2})\n";

// Bounds on what a scenario line may ask for: the network indexes servers
// densely, and every key, write and vessel chunk costs memory.
constexpr int64_t kMaxServers = int64_t{1} << 17;
constexpr int64_t kMaxKeysOrWrites = int64_t{1} << 16;
constexpr int64_t kMaxVesselBytes = int64_t{1} << 30;
constexpr SimTime kMaxPhase = 3600 * kSimSecond;

std::string SvcModuleSource(int step) {
  return StrFormat("SVC_LIMIT = %d\n", 100 + step);
}

// The Gatekeeper config the workload rolls forward: an employee bypass rule
// plus an id_mod bucket whose width and pass probability change every step —
// exercising live recompiles, sampling, and the cost-based optimizer.
std::string GatekeeperConfigJson(int step) {
  return StrFormat(
      "{\"project\":\"dst_rollout\",\"rules\":["
      "{\"restraints\":[{\"type\":\"employee\"}],\"pass_probability\":1.0},"
      "{\"restraints\":[{\"type\":\"id_mod\",\"params\":{\"mod\":100,\"lo\":0,"
      "\"hi\":%d}}],\"pass_probability\":%.1f}]}",
      10 + (step * 7) % 90, 0.5 * (step % 3));
}

// The cross-config invariant the inconsistent-commit fault violates: key0's
// shed threshold must stay at or below key1's kill threshold.
std::string InvariantSpecJson(const std::string& path0,
                              const std::string& path1) {
  return "{\"invariants\":[{\"name\":\"shed-below-kill\",\"kind\":"
         "\"ordering\",\"severity\":\"error\","
         "\"lhs\":{\"config\":\"" + path0 + "\",\"field\":\"shed\"},"
         "\"relation\":\"<=\","
         "\"rhs\":{\"config\":\"" + path1 + "\",\"field\":\"kill\"}}]}";
}

// Placement. The stack puts Zeus member i at {i % R, 0, i / R}, one observer
// at the top of every cluster and the tailer at {0, 0, S / 2}. Proxies fill
// the server layers between the members' and the tailer's; the vessel
// storage host sits at {R - 1, C - 1, S - 2}.
int64_t MemberLayers(const ScenarioOptions& o) {
  return (int64_t{o.members} + o.regions - 1) / o.regions;
}

ServerId ProxyHost(const ScenarioOptions& o, int i) {
  const int R = o.regions;
  const int C = o.clusters_per_region;
  return {i % R, (i / R) % C, static_cast<int>(MemberLayers(o)) + i / (R * C)};
}

Status CheckScenario(const ScenarioOptions& o) {
  auto reject = [&o](const std::string& why) {
    return InvalidArgumentError("scenario cannot run (" + why + "): " +
                                o.ToLine());
  };
  const int64_t clusters = int64_t{o.regions} * o.clusters_per_region;
  if (o.regions < 1 || o.clusters_per_region < 1 ||
      o.servers_per_cluster < 8 || clusters > kMaxServers ||
      clusters * o.servers_per_cluster > kMaxServers) {
    return reject(StrFormat("needs at most %lld servers, 8 or more per "
                            "cluster", static_cast<long long>(kMaxServers)));
  }
  const int64_t layers = o.servers_per_cluster / 2 - MemberLayers(o);
  if (o.members < 1 || layers < 0) {
    return reject("Zeus members do not fit below the tailer");
  }
  if (o.proxies < 0 || o.proxies > layers * clusters) {
    return reject(StrFormat("room for %lld proxies",
                            static_cast<long long>(layers * clusters)));
  }
  if (o.keys < 1 || o.keys > kMaxKeysOrWrites || o.writes < 0 ||
      o.writes > kMaxKeysOrWrites || o.chaos_duration < 1 ||
      o.chaos_duration > kMaxPhase || o.settle < 0 || o.settle > kMaxPhase ||
      o.freshness_slo < 0 || o.check_stride < 1 || o.vessel_bytes < 1 ||
      o.vessel_bytes > kMaxVesselBytes) {
    return reject("a count, size or time out of range");
  }
  return OkStatus();
}

// A whole decimal token that fits T, or an error naming the option.
template <typename T>
Result<T> ParseNumber(const std::string& key, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    return InvalidArgumentError("scenario option " + key + "='" + text +
                                "' is not a number in range");
  }
  return value;
}

// Flattens a multi-line status into one trace log line.
std::string OneLine(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

}  // namespace

// --- ScenarioOptions --------------------------------------------------------

std::string ScenarioOptions::ToLine() const {
  return StrFormat(
      "seed=%llu regions=%d clusters=%d spc=%d members=%d proxies=%d keys=%d "
      "writes=%d chaos_us=%lld settle_us=%lld vessel=%d gatekeeper=%d "
      "vessel_bytes=%lld slo_us=%lld check_stride=%d",
      static_cast<unsigned long long>(seed), regions, clusters_per_region,
      servers_per_cluster, members, proxies, keys, writes,
      static_cast<long long>(chaos_duration), static_cast<long long>(settle),
      enable_vessel ? 1 : 0, enable_gatekeeper ? 1 : 0,
      static_cast<long long>(vessel_bytes),
      static_cast<long long>(freshness_slo), check_stride);
}

Result<ScenarioOptions> ScenarioOptions::Parse(const std::string& line) {
  ScenarioOptions options;
  const std::map<std::string, int*> ints = {
      {"regions", &options.regions},   {"clusters", &options.clusters_per_region},
      {"spc", &options.servers_per_cluster}, {"members", &options.members},
      {"proxies", &options.proxies},   {"keys", &options.keys},
      {"writes", &options.writes},     {"check_stride", &options.check_stride}};
  const std::map<std::string, int64_t*> int64s = {
      {"chaos_us", &options.chaos_duration}, {"settle_us", &options.settle},
      {"vessel_bytes", &options.vessel_bytes},
      {"slo_us", &options.freshness_slo}};
  const std::map<std::string, bool*> flags = {
      {"vessel", &options.enable_vessel},
      {"gatekeeper", &options.enable_gatekeeper}};
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("bad scenario token: " + token);
    }
    std::string key = token.substr(0, eq);
    std::string text = token.substr(eq + 1);
    if (key == "seed") {
      ASSIGN_OR_RETURN(options.seed, ParseNumber<uint64_t>(key, text));
    } else if (auto it = ints.find(key); it != ints.end()) {
      ASSIGN_OR_RETURN(*it->second, ParseNumber<int>(key, text));
    } else if (auto it64 = int64s.find(key); it64 != int64s.end()) {
      ASSIGN_OR_RETURN(*it64->second, ParseNumber<int64_t>(key, text));
    } else if (auto flag = flags.find(key); flag != flags.end()) {
      ASSIGN_OR_RETURN(int value, ParseNumber<int>(key, text));
      *flag->second = value != 0;
    } else {
      return InvalidArgumentError("unknown scenario option: " + key);
    }
  }
  RETURN_IF_ERROR(CheckScenario(options));
  return options;
}

// --- Harness ----------------------------------------------------------------

namespace {

ConfigManagementStack::Options StackOptions(const ScenarioOptions& o) {
  assert(CheckScenario(o).ok() && "scenario cannot run");
  ConfigManagementStack::Options options;
  options.regions = o.regions;
  options.clusters_per_region = o.clusters_per_region;
  options.servers_per_cluster = o.servers_per_cluster;
  options.zeus_members = static_cast<size_t>(o.members);
  options.observers_per_cluster = 1;
  options.tailer.poll_interval = kSimSecond;
  options.seed = o.seed;
  return options;
}

// Fixed evaluation panel for gatekeeper-consistency: an employee, plus
// non-employees landing in different id_mod buckets.
std::vector<UserContext> GatekeeperPanel() {
  std::vector<UserContext> users(4);
  users[0].user_id = 1;
  users[0].is_employee = true;
  users[1].user_id = 42;
  users[1].country = "US";
  users[2].user_id = 1077;
  users[3].user_id = 991;
  return users;
}

}  // namespace

Harness::Harness(const ScenarioOptions& options)
    : options_(options),
      stack_(StackOptions(options)),
      storage_host_{options.regions - 1, options.clusters_per_region - 1,
                    options.servers_per_cluster - 2},
      gk_users_(GatekeeperPanel()) {
  stack_.tailer().set_on_published(
      [this](const std::string& path, int64_t zxid) {
        Log(StrFormat("published %s zxid=%lld", path.c_str(),
                      static_cast<long long>(zxid)));
      });

  for (int k = 0; k < options_.keys; ++k) {
    tracked_keys_.push_back(StrFormat("cfg/key%d.json", k));
  }
  if (options_.enable_gatekeeper) {
    tracked_keys_.push_back(kGatekeeperKey);
  }
  tracked_keys_.push_back(kSvcKey);
  if (options_.enable_vessel) {
    vessel_key_ = VesselPublisher::MetadataKey(kVesselName);
    tracked_keys_.push_back(vessel_key_);
  }

  gk_delivered_.resize(static_cast<size_t>(options_.proxies));
  last_seen_zxid_.resize(static_cast<size_t>(options_.proxies));
  for (int i = 0; i < options_.proxies; ++i) {
    const ServerId host = ProxyHost(options_, i);
    proxy_hosts_.push_back(host);
    ConfigProxy* proxy = stack_.ProxyOn(host);
    apps_.push_back(stack_.ClientOn(host));
    gk_runtimes_.push_back(std::make_unique<GatekeeperRuntime>());
    gk_runtimes_.back()->AttachObservability(&stack_.obs(), host.ToString());
    for (const std::string& key : tracked_keys_) {
      if (key != kGatekeeperKey) {
        proxy->Subscribe(key, nullptr);
        continue;
      }
      GatekeeperRuntime* runtime = gk_runtimes_.back().get();
      std::string* delivered = &gk_delivered_[static_cast<size_t>(i)];
      proxy->Subscribe(key, [this, runtime, delivered](const std::string& path,
                                                       const std::string& value,
                                                       int64_t zxid) {
        *delivered = value;
        // Invalid JSON keeps the previous project live; the consistency
        // invariant then compares against the delivered (bad) config and
        // flags the divergence. The zxid parents a gatekeeper.snapshot_swap
        // span at the commit's trace.
        (void)runtime->ApplyConfigUpdate(path, value, zxid, stack_.sim().now());
      });
    }
  }

  if (options_.enable_vessel) {
    vessel_pub_ = std::make_unique<VesselPublisher>(
        &stack_.network(), &stack_.zeus(), stack_.tailer().host(),
        storage_host_);
    vessel_pub_->AttachObservability(&stack_.obs());
    VesselSwarm::Options swarm_options;
    swarm_options.chunk_size = 2 << 20;
    swarm_ = std::make_unique<VesselSwarm>(
        &stack_.network(), storage_host_, proxy_hosts_, options_.vessel_bytes,
        swarm_options, options_.seed ^ 0xbead5a17ULL);
    swarm_->AttachObservability(&stack_.obs());
  }
}

FaultPlanShape Harness::shape() {
  return {stack_.zeus().member_ids(), stack_.zeus().observers(), proxy_hosts_,
          {stack_.tailer().host(), storage_host_}, options_.chaos_duration};
}

void Harness::LandChange(const std::string& what,
                         std::vector<FileWrite> writes) {
  Result<PendingChange> change =
      stack_.ProposeChange(kAuthor, what, std::move(writes));
  if (!change.ok()) {
    RecordLanding(what, ProposedDiff{}, change.status());
    return;
  }
  Status approved = stack_.Approve(&*change, kReviewer);
  RecordLanding(what, change->diff,
                approved.ok() ? stack_.LandNow(*change)
                              : Result<ObjectId>(approved));
}

void Harness::ForceLand(const std::string& what,
                        std::vector<FileWrite> writes) {
  ProposedDiff diff =
      MakeProposedDiff(stack_.repo(), kAuthor, what, std::move(writes),
                       stack_.sim().now() / kSimMillisecond);
  RecordLanding(what, diff, stack_.landing_strip().Land(diff));
}

void Harness::RecordLanding(const std::string& what, const ProposedDiff& diff,
                            const Result<ObjectId>& landed) {
  if (!landed.ok()) {
    Log("rejected " + what + ": " + OneLine(landed.status().ToString()));
    return;
  }
  std::string paths;
  for (const FileWrite& write : diff.writes) {
    if (write.content.has_value()) {
      written_values_[write.path].insert(*write.content);
    }
    paths += " " + write.path;
  }
  Log("commit " + what + paths);
}

void Harness::ScheduleWorkload() {
  // The seed commit, so every key exists before the chaos window: the raw
  // keys, the Gatekeeper project, the CSL service config and (with two
  // keys to relate) the cross-config invariant spec.
  std::vector<FileWrite> seed;
  for (int k = 0; k < options_.keys; ++k) {
    seed.push_back(FileWrite{tracked_keys_[static_cast<size_t>(k)],
                             StrFormat("{\"key\":%d,\"step\":0}", k)});
  }
  if (options_.enable_gatekeeper) {
    seed.push_back(FileWrite{kGatekeeperKey, GatekeeperConfigJson(0)});
  }
  seed.push_back(FileWrite{kSvcModule, SvcModuleSource(0)});
  seed.push_back(FileWrite{kSvcEntry, kSvcEntrySource});
  if (options_.keys >= 2) {
    seed.push_back(FileWrite{"invariants/dst.json",
                             InvariantSpecJson(tracked_keys_[0],
                                               tracked_keys_[1])});
  }
  LandChange("step=0", std::move(seed));

  // Ongoing writes, spread over the chaos window: a bump of the service
  // module every fifth step, a Gatekeeper rollout every fourth, raw key
  // edits otherwise.
  Rng workload_rng(options_.seed * 7919 + 17);
  for (int step = 1; step <= options_.writes; ++step) {
    SimTime at = kSimSecond + static_cast<SimTime>(workload_rng.NextBounded(
                     static_cast<uint64_t>(
                         std::max<SimTime>(options_.chaos_duration - 2 * kSimSecond, 1))));
    FileWrite write;
    if (step % 5 == 0) {
      write = FileWrite{kSvcModule, SvcModuleSource(step)};
    } else if (options_.enable_gatekeeper && step % 4 == 0) {
      write = FileWrite{kGatekeeperKey, GatekeeperConfigJson(step)};
    } else {
      int k = static_cast<int>(
          workload_rng.NextBounded(static_cast<uint64_t>(options_.keys)));
      write = FileWrite{
          tracked_keys_[static_cast<size_t>(k)],
          StrFormat("{\"key\":%d,\"step\":%d,\"nonce\":%llu}", k, step,
                    static_cast<unsigned long long>(workload_rng.Next() &
                                                    0xffffff))};
    }
    stack_.sim().ScheduleAt(at, [this, step, write] {
      LandChange(StrFormat("step=%d", step), {write});
    });
  }

  if (options_.enable_vessel) {
    stack_.sim().ScheduleAt(2 * kSimSecond, [this] {
      vessel_pub_->Publish(kVesselName, 1, options_.vessel_bytes,
                           [this](Result<int64_t> zxid) {
                             Log(StrFormat("vessel-published ok=%d",
                                           zxid.ok() ? 1 : 0));
                           });
    });
    stack_.sim().ScheduleAt(4 * kSimSecond, [this] {
      swarm_->Start([this](const ServerId& client, SimTime /*when*/) {
        Log("vessel-complete " + client.ToString());
      });
    });
  }
}

void Harness::ApplyFault(const FaultEvent& event) {
  Log("apply " + event.ToLine());
  switch (event.op) {
    case FaultOp::kCrash:
      stack_.zeus().Crash(event.group_a.at(0));
      break;
    case FaultOp::kRecover: {
      const ServerId& id = event.group_a.at(0);
      stack_.zeus().Recover(id);
      if (swarm_ != nullptr &&
          std::find(proxy_hosts_.begin(), proxy_hosts_.end(), id) !=
              proxy_hosts_.end()) {
        swarm_->ResumeClient(id);
      }
      break;
    }
    case FaultOp::kCrashProxy:
    case FaultOp::kRestartProxy:
      if (event.index >= 0 && event.index < options_.proxies) {
        ConfigProxy* proxy =
            stack_.ProxyOn(proxy_hosts_[static_cast<size_t>(event.index)]);
        event.op == FaultOp::kCrashProxy ? proxy->Crash() : proxy->Restart();
      }
      break;
    case FaultOp::kPartition:
      stack_.network().Partition(event.group_a, event.group_b);
      break;
    case FaultOp::kPartitionOneWay:
      stack_.network().PartitionOneWay(event.group_a, event.group_b);
      break;
    case FaultOp::kHealPartitions:
      stack_.network().HealAllPartitions();
      break;
    case FaultOp::kGlobalFault:
      stack_.network().SetDefaultFault(event.fault);
      break;
    case FaultOp::kClearFaults:
      stack_.network().ClearLinkFaults();
      break;
    case FaultOp::kCorruptDisk:
      CorruptDisk(event.index, event.key);
      break;
    case FaultOp::kInconsistentCommit:
      SeedInconsistentCommit(event.key);
      break;
  }
}

void Harness::SeedInconsistentCommit(const std::string& mode) {
  if (mode == "hand-edit") {
    // A hand edit of a compiled output: valid JSON that its CSL source does
    // not produce. CI rejects such a write, so it can only be force-landed.
    ForceLand("hand-edit", {FileWrite{kSvcKey, "{\n  \"limit\": -1\n}"}});
    return;
  }
  if (options_.keys < 2) {
    return;
  }
  // A jointly-inconsistent pair: key0's shed threshold lands above key1's
  // kill threshold. Each half is individually valid JSON that passes every
  // per-file check — only the cross-config invariant can see the problem.
  std::vector<FileWrite> pair = {
      FileWrite{tracked_keys_[0], "{\"key\":0,\"shed\":90}"},
      FileWrite{tracked_keys_[1], "{\"key\":1,\"kill\":50}"}};
  if (mode == "bypass") {
    // The continuous cross-config check must catch it downstream.
    ForceLand("inconsistent-pair", std::move(pair));
  } else {
    // Sandcastle's invariant stage must reject it: the fleet never sees it.
    LandChange("inconsistent-pair", std::move(pair));
  }
}

void Harness::CorruptDisk(int index, const std::string& key) {
  if (index < 0 || index >= options_.proxies) {
    return;
  }
  OnDiskCache* disk =
      stack_.ProxyOn(proxy_hosts_[static_cast<size_t>(index)])->disk();
  for (const std::string& target : key.empty() || key == "*"
                                       ? tracked_keys_
                                       : std::vector<std::string>{key}) {
    const OnDiskCache::Entry* entry = disk->Get(target);
    if (entry == nullptr) {
      continue;
    }
    // A torn write: the first half of the value made it to disk, the rest is
    // garbage. The zxid stays — exactly the case a naive "version matches"
    // check would miss.
    std::string torn = entry->value.substr(0, entry->value.size() / 2) + "~TORN";
    disk->Put(target, std::move(torn), entry->zxid);
  }
}

void Harness::FinalHeal() {
  Log("final-heal");
  ZeusEnsemble& zeus = stack_.zeus();
  Network& net = stack_.network();
  for (const ServerId& id : zeus.member_ids()) {
    zeus.Recover(id);
  }
  for (const ServerId& id : zeus.observers()) {
    zeus.Recover(id);
  }
  for (const ServerId& id : proxy_hosts_) {
    net.failures().Recover(id);
  }
  net.failures().Recover(stack_.tailer().host());
  net.failures().Recover(storage_host_);
  net.HealAllPartitions();
  net.ClearLinkFaults();
  for (const ServerId& host : proxy_hosts_) {
    ConfigProxy* proxy = stack_.ProxyOn(host);
    if (proxy->crashed()) {
      proxy->Restart();
    } else {
      // The proxy's observer may have missed pushes while either end was
      // down or partitioned; a fresh subscription re-fetches current state.
      proxy->RepickObserver();
    }
  }
  if (swarm_ != nullptr) {
    for (const ServerId& id : proxy_hosts_) {
      swarm_->ResumeClient(id);
    }
  }
}

RunResult Harness::Run(const FaultPlan& plan) {
  assert(!ran_ && "Harness is single-shot; build a fresh one per run");
  ran_ = true;
  Simulator& sim = stack_.sim();

  ScheduleWorkload();
  for (const FaultEvent& event : plan.events) {
    // Faults land strictly before the final heal, so convergence invariants
    // always get a fully-healed network to judge.
    SimTime at = std::clamp<SimTime>(event.at, 0, options_.chaos_duration - 1);
    sim.ScheduleAt(at, [this, event] { ApplyFault(event); });
  }
  sim.ScheduleAt(options_.chaos_duration, [this] { FinalHeal(); });

  const SimTime end = options_.chaos_duration + options_.settle;
  const uint64_t stride =
      static_cast<uint64_t>(std::max(options_.check_stride, 1));
  uint64_t steps = 0;
  while (!violated_ && sim.now() <= end && sim.Step()) {
    if (++steps % stride == 0) {
      CheckContinuous();
    }
  }
  if (!violated_ && stride > 1) {
    // Judge the tail events a stride boundary skipped before convergence.
    CheckContinuous();
  }
  if (!violated_) {
    CheckConvergence();
  }

  RunResult result;
  result.violated = violated_;
  result.violation = violation_;
  result.committed_zxid = stack_.zeus().last_committed_zxid();
  result.published = stack_.tailer().published_count();
  result.vessel_completed =
      swarm_ != nullptr ? swarm_->stats().completed_clients : 0;
  result.net = stack_.network().stats();
  result.sim_events = sim.processed_events();
  result.trace = BuildTrace(plan);
  return result;
}

void Harness::CheckContinuous() {
  if (violated_) {
    return;
  }
  const int64_t committed = stack_.zeus().last_committed_zxid();
  for (size_t i = 0; i < apps_.size(); ++i) {
    for (const std::string& key : tracked_keys_) {
      const OnDiskCache::Entry* entry = apps_[i].Get(key);
      int64_t& last_zxid = last_seen_zxid_[i][key];  // 0 = never observed.
      if (entry == nullptr) {
        if (last_zxid > 0) {
          Fail("last-known-good",
               StrFormat("proxy %zu lost previously-observed key %s", i,
                         key.c_str()));
          return;
        }
        continue;
      }
      if (entry->zxid < last_zxid) {
        Fail("monotonic-version",
             StrFormat("proxy %zu key %s went backwards: zxid %lld -> %lld", i,
                       key.c_str(), static_cast<long long>(last_zxid),
                       static_cast<long long>(entry->zxid)),
             entry->zxid);
        return;
      }
      if (entry->zxid > committed) {
        Fail("phantom-version",
             StrFormat("proxy %zu key %s has zxid %lld beyond commit point %lld",
                       i, key.c_str(), static_cast<long long>(entry->zxid),
                       static_cast<long long>(committed)),
             entry->zxid);
        return;
      }
      if (key == vessel_key_) {
        Result<Json> parsed = Json::Parse(entry->value);
        Result<VesselMetadata> meta =
            parsed.ok() ? VesselMetadata::FromJson(*parsed) : parsed.status();
        if (!meta.ok() || meta->name != kVesselName ||
            meta->content_hash !=
                VesselPublisher::SyntheticHash(meta->name, meta->version)) {
          Fail("vessel-metadata-hash",
               StrFormat("proxy %zu holds vessel metadata whose hash does not "
                         "match the published content (zxid %lld)",
                         i, static_cast<long long>(entry->zxid)));
          return;
        }
      } else if (written_values_[key].count(entry->value) == 0) {
        Fail("no-torn-config",
             StrFormat("proxy %zu key %s serves a value never committed "
                       "(zxid %lld, %zu bytes): torn or corrupt",
                       i, key.c_str(), static_cast<long long>(entry->zxid),
                       entry->value.size()));
        return;
      }
      last_zxid = std::max(last_zxid, entry->zxid);
    }
    // cross-config-invariant: the shed/kill marker pair is only ever written
    // by the inconsistent-commit fault (the normal workload's values carry
    // neither field), so a proxy serving both halves in a violating state
    // means an inconsistent commit reached the fleet. The substring guard
    // keeps the JSON parse off the hot path for ordinary values.
    if (options_.keys >= 2) {
      const OnDiskCache::Entry* e0 = apps_[i].Get(tracked_keys_[0]);
      const OnDiskCache::Entry* e1 = apps_[i].Get(tracked_keys_[1]);
      if (e0 != nullptr && e1 != nullptr &&
          e0->value.find("\"shed\"") != std::string::npos &&
          e1->value.find("\"kill\"") != std::string::npos) {
        Result<Json> j0 = Json::Parse(e0->value);
        Result<Json> j1 = Json::Parse(e1->value);
        if (j0.ok() && j1.ok()) {
          const Json* shed = j0->Get("shed");
          const Json* kill = j1->Get("kill");
          if (shed != nullptr && kill != nullptr && shed->is_number() &&
              kill->is_number() && shed->as_double() > kill->as_double()) {
            Fail("cross-config-invariant",
                 StrFormat("proxy %zu serves shed=%g above kill=%g (zxids "
                           "%lld/%lld): a jointly-inconsistent pair reached "
                           "the fleet",
                           i, shed->as_double(), kill->as_double(),
                           static_cast<long long>(e0->zxid),
                           static_cast<long long>(e1->zxid)),
                 std::max(e0->zxid, e1->zxid));
            return;
          }
        }
      }
    }
    if (options_.enable_gatekeeper) {
      CheckGatekeeper(i);
      if (violated_) {
        return;
      }
    }
  }
}

const NaiveEvaluator* Harness::ReferenceProject(const std::string& json_text) {
  auto [it, inserted] = gk_reference_cache_.try_emplace(json_text);
  if (inserted) {
    // Plain declared-order evaluation: the runtime's compiled snapshot and
    // cost-based reordering are checked against unoptimized semantics.
    Result<Json> parsed = Json::Parse(json_text);
    Result<NaiveEvaluator> project =
        parsed.ok() ? NaiveEvaluator::FromJson(*parsed) : parsed.status();
    if (project.ok()) {
      it->second = std::make_unique<NaiveEvaluator>(std::move(*project));
    }
  }
  return it->second.get();
}

void Harness::CheckGatekeeper(size_t proxy_idx) {
  const std::string& delivered = gk_delivered_[proxy_idx];
  const NaiveEvaluator* reference =
      delivered.empty() ? nullptr : ReferenceProject(delivered);
  if (!delivered.empty() && reference == nullptr) {
    Fail("gatekeeper-consistency",
         StrFormat("proxy %zu was delivered a Gatekeeper config that does not "
                   "compile (%zu bytes)",
                   proxy_idx, delivered.size()));
    return;
  }
  for (const UserContext& user : gk_users_) {
    bool actual = gk_runtimes_[proxy_idx]->Check("dst_rollout", user);
    bool expected = reference != nullptr && reference->Check(user, nullptr);
    if (actual != expected) {
      Fail("gatekeeper-consistency",
           StrFormat("proxy %zu gk_check(dst_rollout, user %lld) = %d but the "
                     "delivered config evaluates to %d",
                     proxy_idx, static_cast<long long>(user.user_id),
                     actual ? 1 : 0, expected ? 1 : 0));
      return;
    }
  }
}

void Harness::CheckConvergence() {
  ZeusEnsemble& zeus = stack_.zeus();
  for (const ServerId& observer : zeus.observers()) {
    int64_t last = zeus.ObserverLastZxid(observer);
    if (last != zeus.last_committed_zxid()) {
      Fail("convergence-observer",
           StrFormat("observer %s stuck at zxid %lld, commit point %lld",
                     observer.ToString().c_str(), static_cast<long long>(last),
                     static_cast<long long>(zeus.last_committed_zxid())));
      return;
    }
  }
  for (size_t i = 0; i < apps_.size(); ++i) {
    for (const std::string& key : tracked_keys_) {
      const ZeusTxn* truth = zeus.Lookup(key);
      if (truth == nullptr) {
        continue;  // Never committed (e.g. every write to it was lost).
      }
      const OnDiskCache::Entry* entry = apps_[i].Get(key);
      if (entry == nullptr || entry->value != truth->value ||
          entry->zxid != truth->zxid) {
        Fail("convergence-proxy",
             StrFormat("proxy %zu key %s did not converge: have zxid %lld, "
                       "truth zxid %lld",
                       i, key.c_str(),
                       static_cast<long long>(entry != nullptr ? entry->zxid
                                                               : -1),
                       static_cast<long long>(truth->zxid)),
             truth->zxid);
        return;
      }
    }
  }
  CheckServedEqualsCompiled();
  if (violated_) {
    return;
  }
  if (swarm_ != nullptr && !swarm_->AllComplete()) {
    Fail("vessel-complete",
         StrFormat("swarm finished %zu of %zu clients",
                   swarm_->stats().completed_clients, proxy_hosts_.size()));
    return;
  }
  if (options_.freshness_slo > 0) {
    CheckFreshness();
  }
}

void Harness::CheckServedEqualsCompiled() {
  // What the compiler makes of the entry at head, in the DumpPretty form
  // ProposeChange lands ("" if it does not compile).
  Result<CompileOutput> output = stack_.CompilerAtHead().Compile(kSvcEntry);
  std::string expected;
  for (const CompiledConfig& config :
       output.ok() ? output->configs : std::vector<CompiledConfig>{}) {
    if (config.path == kSvcKey) {
      expected = config.content.DumpPretty();
    }
  }
  for (size_t i = 0; i < apps_.size(); ++i) {
    const OnDiskCache::Entry* entry = apps_[i].Get(kSvcKey);
    if (entry == nullptr || entry->value != expected) {
      int64_t zxid = entry != nullptr ? entry->zxid : -1;
      Fail("served-equals-compiled",
           StrFormat("proxy %zu serves %s (zxid %lld) but %s compiles at "
                     "head to: %s",
                     i, kSvcKey, static_cast<long long>(zxid), kSvcEntry,
                     OneLine(expected).c_str()),
           zxid);
      return;
    }
  }
}

void Harness::CheckFreshness() {
  // Fleet-wide propagation latency: the merge of every proxy's log-linear
  // histogram equals recording the union stream, so the fleet p99.9 comes
  // straight out of the roll-up.
  const MetricsRegistry& metrics = stack_.obs().metrics;
  Histogram fleet = metrics.MergedHistogram("proxy_propagation_seconds");
  if (fleet.count() == 0) {
    return;
  }
  double bound = SimToSeconds(options_.freshness_slo);
  double p999 = fleet.Quantile(0.999);
  if (p999 <= bound) {
    return;
  }
  // Identify the slowest proxy and the zxid of its slowest delivery so the
  // violation report can embed that commit's span tree.
  double worst = -1;
  ServerId worst_host{};
  for (const ServerId& host : proxy_hosts_) {
    const Histogram* h = metrics.FindHistogram(
        "proxy_propagation_seconds", {{"server", host.ToString()}});
    if (h != nullptr && h->count() > 0 && h->max() > worst) {
      worst = h->max();
      worst_host = host;
    }
  }
  const Gauge* slow = metrics.FindGauge(
      "proxy_slowest_zxid", {{"server", worst_host.ToString()}});
  int64_t slowest_zxid =
      slow != nullptr ? static_cast<int64_t>(slow->value()) : -1;
  Fail("freshness-slo",
       StrFormat("fleet p99.9 propagation %.3fs exceeds SLO %.3fs "
                 "(worst %.3fs on proxy %s, zxid %lld)",
                 p999, bound, worst, worst_host.ToString().c_str(),
                 static_cast<long long>(slowest_zxid)),
       slowest_zxid);
}

void Harness::Fail(const std::string& invariant, std::string message,
                   int64_t zxid) {
  if (violated_) {
    return;
  }
  violated_ = true;
  violation_.at = stack_.sim().now();
  violation_.invariant = invariant;
  violation_.message = std::move(message);
  const Tracer& tracer = stack_.obs().tracer;
  TraceContext ctx = zxid >= 0 ? tracer.ZxidContext(zxid) : TraceContext{};
  if (ctx.valid()) {
    violation_.span_tree = tracer.DumpTree(ctx.trace_id);
  }
}

void Harness::Log(std::string line) {
  log_.push_back(
      StrFormat("log %lld ", static_cast<long long>(stack_.sim().now())) +
      std::move(line));
}

std::string Harness::BuildTrace(const FaultPlan& plan) const {
  std::string out = std::string(kTraceHeader) + "\nscenario " +
                    options_.ToLine() + "\nplan-begin\n" + plan.ToString() +
                    "plan-end\n";
  for (const std::string& line : log_) {
    out += line + "\n";
  }
  if (violated_) {
    out += StrFormat("violation at=%lld invariant=%s :: %s\n",
                     static_cast<long long>(violation_.at),
                     violation_.invariant.c_str(), violation_.message.c_str());
    if (!violation_.span_tree.empty()) {
      // The implicated commit's span tree, for humans reading the trace.
      // Replay ignores these lines.
      out += "span-tree-begin\n";
      out += violation_.span_tree;
      out += "span-tree-end\n";
    }
  } else {
    out += "result ok\n";
  }
  return out;
}

Result<RunResult> Harness::Replay(const std::string& trace_text) {
  std::optional<ScenarioOptions> scenario;
  bool in_plan = false;
  std::string plan_text;
  std::istringstream in(trace_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "plan-begin" || line == "plan-end") {
      in_plan = line == "plan-begin";
    } else if (in_plan) {
      plan_text += line + "\n";
    } else if (line.rfind("scenario ", 0) == 0) {
      ASSIGN_OR_RETURN(scenario, ScenarioOptions::Parse(line.substr(9)));
    }
  }
  if (!scenario.has_value()) {
    return InvalidArgumentError("trace has no scenario line");
  }
  ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::Parse(plan_text));
  Harness harness(*scenario);
  for (const FaultEvent& event : plan.events) {
    for (const std::vector<ServerId>* group : {&event.group_a, &event.group_b}) {
      for (const ServerId& id : *group) {
        if (!harness.stack_.topology().Contains(id)) {
          return InvalidArgumentError("fault plan names server " +
                                      id.ToString() +
                                      " outside the scenario's topology: " +
                                      event.ToLine());
        }
      }
    }
  }
  return harness.Run(plan);
}

}  // namespace configerator
