#include "src/dst/fault_plan.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/util/strings.h"

namespace configerator {

namespace {

std::string FormatSid(const ServerId& id) {
  return StrFormat("%d.%d.%d", id.region, id.cluster, id.server);
}

Result<ServerId> ParseSid(const std::string& token) {
  ServerId id;
  if (std::sscanf(token.c_str(), "%d.%d.%d", &id.region, &id.cluster,
                  &id.server) != 3) {
    return InvalidArgumentError("bad server id: " + token);
  }
  return id;
}

std::string FormatGroup(const std::vector<ServerId>& group) {
  std::string out;
  for (const ServerId& id : group) {
    if (!out.empty()) {
      out += ",";
    }
    out += FormatSid(id);
  }
  return out;
}

Result<std::vector<ServerId>> ParseGroup(const std::string& token) {
  std::vector<ServerId> group;
  std::string current;
  std::istringstream in(token);
  while (std::getline(in, current, ',')) {
    ASSIGN_OR_RETURN(ServerId id, ParseSid(current));
    group.push_back(id);
  }
  if (group.empty()) {
    return InvalidArgumentError("empty server group: " + token);
  }
  return group;
}

Result<double> ParseKeyedDouble(const std::string& token, const char* name) {
  std::string prefix = std::string(name) + "=";
  if (token.compare(0, prefix.size(), prefix) != 0) {
    return InvalidArgumentError(StrFormat("expected %s=<v>, got '%s'", name,
                                          token.c_str()));
  }
  return std::strtod(token.c_str() + prefix.size(), nullptr);
}

}  // namespace

std::string FaultEvent::ToLine() const {
  std::string head = StrFormat("at %lld ", static_cast<long long>(at));
  switch (op) {
    case FaultOp::kCrash:
      return head + "crash " + FormatSid(group_a.at(0));
    case FaultOp::kRecover:
      return head + "recover " + FormatSid(group_a.at(0));
    case FaultOp::kCrashProxy:
      return head + StrFormat("crash-proxy %d", index);
    case FaultOp::kRestartProxy:
      return head + StrFormat("restart-proxy %d", index);
    case FaultOp::kPartition:
      return head + "partition " + FormatGroup(group_a) + " | " +
             FormatGroup(group_b);
    case FaultOp::kPartitionOneWay:
      return head + "partition-oneway " + FormatGroup(group_a) + " | " +
             FormatGroup(group_b);
    case FaultOp::kHealPartitions:
      return head + "heal-partitions";
    case FaultOp::kGlobalFault:
      return head + StrFormat(
                        "global-fault drop=%.17g dup=%.17g reorder=%.17g "
                        "delay=%lld jitter=%lld",
                        fault.drop_prob, fault.dup_prob, fault.reorder_prob,
                        static_cast<long long>(fault.extra_delay),
                        static_cast<long long>(fault.extra_delay_jitter));
    case FaultOp::kClearFaults:
      return head + "clear-faults";
    case FaultOp::kCorruptDisk:
      return head + StrFormat("corrupt-disk %d ", index) +
             (key.empty() ? "*" : key);
    case FaultOp::kInconsistentCommit:
      return head + "inconsistent-commit " + (key.empty() ? "gated" : key);
  }
  return head + "?";
}

Result<FaultEvent> FaultEvent::FromLine(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  if (tokens.size() < 3 || tokens[0] != "at") {
    return InvalidArgumentError("bad fault event line: " + line);
  }
  FaultEvent event;
  event.at = std::strtoll(tokens[1].c_str(), nullptr, 10);
  const std::string& op = tokens[2];
  auto need = [&](size_t n) -> Status {
    if (tokens.size() < n) {
      return InvalidArgumentError("truncated fault event line: " + line);
    }
    return OkStatus();
  };
  if (op == "crash" || op == "recover") {
    RETURN_IF_ERROR(need(4));
    event.op = op == "crash" ? FaultOp::kCrash : FaultOp::kRecover;
    ASSIGN_OR_RETURN(ServerId id, ParseSid(tokens[3]));
    event.group_a.push_back(id);
  } else if (op == "crash-proxy" || op == "restart-proxy") {
    RETURN_IF_ERROR(need(4));
    event.op = op == "crash-proxy" ? FaultOp::kCrashProxy
                                   : FaultOp::kRestartProxy;
    event.index = std::atoi(tokens[3].c_str());
  } else if (op == "partition" || op == "partition-oneway") {
    RETURN_IF_ERROR(need(6));
    if (tokens[4] != "|") {
      return InvalidArgumentError("partition needs 'A | B': " + line);
    }
    event.op = op == "partition" ? FaultOp::kPartition
                                 : FaultOp::kPartitionOneWay;
    ASSIGN_OR_RETURN(event.group_a, ParseGroup(tokens[3]));
    ASSIGN_OR_RETURN(event.group_b, ParseGroup(tokens[5]));
  } else if (op == "heal-partitions") {
    event.op = FaultOp::kHealPartitions;
  } else if (op == "global-fault") {
    RETURN_IF_ERROR(need(8));
    event.op = FaultOp::kGlobalFault;
    ASSIGN_OR_RETURN(event.fault.drop_prob, ParseKeyedDouble(tokens[3], "drop"));
    ASSIGN_OR_RETURN(event.fault.dup_prob, ParseKeyedDouble(tokens[4], "dup"));
    ASSIGN_OR_RETURN(event.fault.reorder_prob,
                     ParseKeyedDouble(tokens[5], "reorder"));
    ASSIGN_OR_RETURN(double delay, ParseKeyedDouble(tokens[6], "delay"));
    ASSIGN_OR_RETURN(double jitter, ParseKeyedDouble(tokens[7], "jitter"));
    event.fault.extra_delay = static_cast<SimTime>(delay);
    event.fault.extra_delay_jitter = static_cast<SimTime>(jitter);
  } else if (op == "clear-faults") {
    event.op = FaultOp::kClearFaults;
  } else if (op == "corrupt-disk") {
    RETURN_IF_ERROR(need(5));
    event.op = FaultOp::kCorruptDisk;
    event.index = std::atoi(tokens[3].c_str());
    event.key = tokens[4] == "*" ? "" : tokens[4];
  } else if (op == "inconsistent-commit") {
    RETURN_IF_ERROR(need(4));
    if (tokens[3] != "gated" && tokens[3] != "bypass" &&
        tokens[3] != "hand-edit") {
      return InvalidArgumentError("inconsistent-commit mode must be gated, "
                                  "bypass or hand-edit: " + line);
    }
    event.op = FaultOp::kInconsistentCommit;
    event.key = tokens[3];
  } else {
    return InvalidArgumentError("unknown fault op '" + op + "' in: " + line);
  }
  return event;
}

void FaultPlan::SortByTime() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& event : events) {
    out += event.ToLine();
    out += "\n";
  }
  return out;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    ASSIGN_OR_RETURN(FaultEvent event, FaultEvent::FromLine(line));
    plan.events.push_back(std::move(event));
  }
  return plan;
}

FaultPlan FaultPlan::Random(uint64_t seed, const FaultPlanShape& shape,
                            const RandomPlanOptions& options) {
  Rng rng(seed ^ 0xfa0173a7ULL);
  FaultPlan plan;
  const SimTime lo = shape.duration / 20;
  const SimTime hi = shape.duration * 9 / 10;
  auto rand_time = [&rng, lo, hi] {
    return lo + static_cast<SimTime>(rng.NextBounded(
                    static_cast<uint64_t>(std::max<SimTime>(hi - lo, 1))));
  };
  auto rand_dwell = [&rng] {
    return kSimSecond +
           static_cast<SimTime>(rng.NextBounded(8 * kSimSecond));
  };

  std::vector<ServerId> participants;
  for (const auto* group :
       {&shape.members, &shape.observers, &shape.proxies, &shape.other_hosts}) {
    participants.insert(participants.end(), group->begin(), group->end());
  }

  auto crash_pair = [&](const ServerId& victim) {
    FaultEvent crash;
    crash.at = rand_time();
    crash.op = FaultOp::kCrash;
    crash.group_a.push_back(victim);
    FaultEvent recover = crash;
    recover.at = crash.at + rand_dwell();
    recover.op = FaultOp::kRecover;
    plan.events.push_back(std::move(crash));
    plan.events.push_back(std::move(recover));
  };

  for (int i = 0; i < options.incidents; ++i) {
    switch (rng.NextBounded(6)) {
      case 0: {  // Zeus member crash + recovery.
        if (!shape.members.empty()) {
          crash_pair(shape.members[rng.NextBounded(shape.members.size())]);
        }
        break;
      }
      case 1: {  // Observer or auxiliary-host crash + recovery.
        const std::vector<ServerId>& pool =
            !shape.observers.empty() && rng.NextBool(0.7) ? shape.observers
                                                          : shape.other_hosts;
        if (!pool.empty()) {
          crash_pair(pool[rng.NextBounded(pool.size())]);
        }
        break;
      }
      case 2: {  // Proxy process crash + restart.
        if (!shape.proxies.empty()) {
          int proxy = static_cast<int>(rng.NextBounded(shape.proxies.size()));
          FaultEvent crash;
          crash.at = rand_time();
          crash.op = FaultOp::kCrashProxy;
          crash.index = proxy;
          FaultEvent restart = crash;
          restart.at = crash.at + rand_dwell();
          restart.op = FaultOp::kRestartProxy;
          plan.events.push_back(std::move(crash));
          plan.events.push_back(std::move(restart));
        }
        break;
      }
      case 3: {  // Partition window (region cut, bisection, or isolation).
        if (participants.size() < 2) {
          break;
        }
        FaultEvent cut;
        cut.at = rand_time();
        cut.op = rng.NextBool(0.3) ? FaultOp::kPartitionOneWay
                                   : FaultOp::kPartition;
        switch (rng.NextBounded(3)) {
          case 0: {  // Cut one region off from the rest.
            int region = participants[rng.NextBounded(participants.size())].region;
            for (const ServerId& id : participants) {
              (id.region == region ? cut.group_a : cut.group_b).push_back(id);
            }
            break;
          }
          case 1: {  // Random bisection.
            std::vector<ServerId> shuffled = participants;
            for (size_t j = shuffled.size(); j > 1; --j) {
              std::swap(shuffled[j - 1], shuffled[rng.NextBounded(j)]);
            }
            size_t split = 1 + rng.NextBounded(shuffled.size() - 1);
            cut.group_a.assign(shuffled.begin(),
                               shuffled.begin() + static_cast<long>(split));
            cut.group_b.assign(shuffled.begin() + static_cast<long>(split),
                               shuffled.end());
            break;
          }
          default: {  // Isolate a single server.
            const ServerId& victim =
                participants[rng.NextBounded(participants.size())];
            cut.group_a.push_back(victim);
            for (const ServerId& id : participants) {
              if (!(id == victim)) {
                cut.group_b.push_back(id);
              }
            }
            break;
          }
        }
        if (cut.group_a.empty() || cut.group_b.empty()) {
          break;
        }
        FaultEvent heal;
        heal.at = cut.at + rand_dwell();
        heal.op = FaultOp::kHealPartitions;
        plan.events.push_back(std::move(cut));
        plan.events.push_back(std::move(heal));
        break;
      }
      case 4: {  // Lossy-network window.
        FaultEvent storm;
        storm.at = rand_time();
        storm.op = FaultOp::kGlobalFault;
        storm.fault.drop_prob = rng.NextDouble() * options.max_drop_prob;
        storm.fault.dup_prob = rng.NextDouble() * options.max_dup_prob;
        storm.fault.reorder_prob = rng.NextDouble() * options.max_reorder_prob;
        storm.fault.extra_delay = static_cast<SimTime>(
            rng.NextBounded(static_cast<uint64_t>(options.max_extra_delay) + 1));
        storm.fault.extra_delay_jitter = storm.fault.extra_delay;
        FaultEvent clear;
        clear.at = storm.at + rand_dwell();
        clear.op = FaultOp::kClearFaults;
        plan.events.push_back(std::move(storm));
        plan.events.push_back(std::move(clear));
        break;
      }
      default: {  // Disk corruption (off unless explicitly requested).
        if (options.include_corruption && !shape.proxies.empty()) {
          FaultEvent corrupt;
          corrupt.at = rand_time();
          corrupt.op = FaultOp::kCorruptDisk;
          corrupt.index = static_cast<int>(rng.NextBounded(shape.proxies.size()));
          plan.events.push_back(std::move(corrupt));
        }
        break;
      }
    }
  }
  plan.SortByTime();
  return plan;
}

}  // namespace configerator
