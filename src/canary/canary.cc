#include "src/canary/canary.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace configerator {

CanarySpec CanarySpec::Default(size_t cluster_size) {
  CanarySpec spec;
  CanaryPhase phase1;
  phase1.name = "phase1-20-servers";
  phase1.num_servers = 20;
  phase1.hold_time = 2 * kSimMinute;
  spec.phases.push_back(phase1);

  CanaryPhase phase2;
  phase2.name = "phase2-full-cluster";
  phase2.num_servers = cluster_size;
  phase2.hold_time = 8 * kSimMinute;
  spec.phases.push_back(phase2);
  return spec;
}

CanarySpec CanarySpec::SmallOnly() {
  CanarySpec spec;
  CanaryPhase phase1;
  phase1.name = "phase1-20-servers";
  phase1.num_servers = 20;
  phase1.hold_time = 2 * kSimMinute;
  spec.phases.push_back(phase1);
  return spec;
}

Json CanarySpec::ToJson() const {
  Json phases_json = Json::MakeArray();
  for (const CanaryPhase& phase : phases) {
    Json p = Json::MakeObject();
    p.Set("name", phase.name);
    p.Set("num_servers", static_cast<int64_t>(phase.num_servers));
    p.Set("hold_time_s", phase.hold_time / kSimSecond);
    p.Set("max_error_rate_ratio", phase.max_error_rate_ratio);
    p.Set("max_latency_ratio", phase.max_latency_ratio);
    p.Set("max_crash_rate", phase.max_crash_rate);
    phases_json.Append(std::move(p));
  }
  Json spec = Json::MakeObject();
  spec.Set("phases", std::move(phases_json));
  return spec;
}

Result<CanarySpec> CanarySpec::FromJson(const Json& json) {
  if (!json.is_object()) {
    return InvalidConfigError("canary spec must be a JSON object");
  }
  const Json* phases = json.Get("phases");
  if (phases == nullptr || !phases->is_array() || phases->size() == 0) {
    return InvalidConfigError("canary spec needs a nonempty 'phases' list");
  }
  CanarySpec spec;
  for (const Json& p : phases->as_array()) {
    if (!p.is_object()) {
      return InvalidConfigError("canary phase must be an object");
    }
    CanaryPhase phase;
    const Json* name = p.Get("name");
    if (name != nullptr && name->is_string()) {
      phase.name = name->as_string();
    } else {
      phase.name = StrFormat("phase%zu", spec.phases.size() + 1);
    }
    const Json* servers = p.Get("num_servers");
    if (servers == nullptr || !servers->is_int() || servers->as_int() <= 0) {
      return InvalidConfigError("canary phase needs positive 'num_servers'");
    }
    phase.num_servers = static_cast<size_t>(servers->as_int());
    const Json* hold = p.Get("hold_time_s");
    if (hold != nullptr) {
      if (!hold->is_number() || hold->as_double() <= 0) {
        return InvalidConfigError("'hold_time_s' must be a positive number");
      }
      phase.hold_time = static_cast<SimTime>(hold->as_double() * kSimSecond);
    }
    auto read_ratio = [&p](const char* key, double* out) -> Status {
      const Json* v = p.Get(key);
      if (v == nullptr) {
        return OkStatus();
      }
      if (!v->is_number() || v->as_double() <= 0) {
        return InvalidConfigError(std::string(key) + " must be positive");
      }
      *out = v->as_double();
      return OkStatus();
    };
    RETURN_IF_ERROR(read_ratio("max_error_rate_ratio", &phase.max_error_rate_ratio));
    RETURN_IF_ERROR(read_ratio("max_latency_ratio", &phase.max_latency_ratio));
    RETURN_IF_ERROR(read_ratio("max_crash_rate", &phase.max_crash_rate));
    // Phases must not shrink: each later phase widens exposure.
    if (!spec.phases.empty() &&
        phase.num_servers <= spec.phases.back().num_servers) {
      return InvalidConfigError(
          "canary phases must strictly grow in server count");
    }
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

std::string_view ConfigDefectName(ConfigDefect defect) {
  switch (defect) {
    case ConfigDefect::kNone:
      return "none";
    case ConfigDefect::kImmediateError:
      return "type-I-immediate-error";
    case ConfigDefect::kLoadSensitive:
      return "type-II-load-sensitive";
    case ConfigDefect::kLatentCrash:
      return "type-III-latent-code-bug";
  }
  return "?";
}

DefectServiceModel::DefectServiceModel(ConfigDefect defect, Params params,
                                       uint64_t seed)
    : defect_(defect), params_(params), rng_(seed) {}

double DefectServiceModel::Noisy(double value, size_t group_size) {
  // Noise shrinks with sqrt(group size): a 20-server sample is ~10x noisier
  // than a 2000-server cluster sample.
  double scale =
      params_.noise_fraction / std::sqrt(static_cast<double>(std::max<size_t>(group_size, 1)));
  double noisy = value * (1.0 + scale * rng_.NextGaussian() * 4.47);  // 4.47≈sqrt(20)
  return std::max(noisy, 0.0);
}

GroupMetrics DefectServiceModel::Measure(bool canary_group, size_t group_size,
                                         size_t fleet_size) {
  GroupMetrics metrics;
  metrics.error_rate = params_.base_error_rate;
  metrics.latency_ms = params_.base_latency_ms;
  metrics.crash_rate = 0.0;

  if (canary_group && defect_ != ConfigDefect::kNone) {
    double deployed_fraction = static_cast<double>(group_size) /
                               static_cast<double>(std::max<size_t>(fleet_size, 1));
    switch (defect_) {
      case ConfigDefect::kImmediateError:
        // Obvious once deployed anywhere: error rate multiplies.
        metrics.error_rate *= 1.0 + 9.0 * params_.severity;
        break;
      case ConfigDefect::kLoadSensitive:
        // Backend overload grows with the deployed fraction of the fleet; at
        // 20/200k servers the effect is ~absent, at cluster scale it bites.
        metrics.latency_ms *=
            1.0 + params_.severity * 80.0 * deployed_fraction;
        metrics.error_rate *= 1.0 + params_.severity * 20.0 * deployed_fraction;
        break;
      case ConfigDefect::kLatentCrash: {
        // Each instance hits the buggy path with small probability during
        // the hold; expected crash fraction is severity-scaled.
        double per_instance = 0.02 * params_.severity;
        metrics.crash_rate = per_instance;
        break;
      }
      case ConfigDefect::kNone:
        break;
    }
  }

  metrics.error_rate = Noisy(metrics.error_rate, group_size);
  metrics.latency_ms = Noisy(metrics.latency_ms, group_size);
  if (metrics.crash_rate > 0) {
    // Binomial sampling of observed crashes in the group.
    size_t crashes = 0;
    for (size_t i = 0; i < group_size; ++i) {
      if (rng_.NextBool(metrics.crash_rate)) {
        ++crashes;
      }
    }
    metrics.crash_rate =
        static_cast<double>(crashes) / static_cast<double>(std::max<size_t>(group_size, 1));
  }
  return metrics;
}

Status CanaryService::EvaluatePhase(const CanaryPhase& phase,
                                    const GroupMetrics& canary,
                                    const GroupMetrics& control) {
  if (control.error_rate > 0 &&
      canary.error_rate > control.error_rate * phase.max_error_rate_ratio) {
    return RejectedError(StrFormat(
        "%s: error rate %.5f exceeds %.2fx control (%.5f)", phase.name.c_str(),
        canary.error_rate, phase.max_error_rate_ratio, control.error_rate));
  }
  if (control.latency_ms > 0 &&
      canary.latency_ms > control.latency_ms * phase.max_latency_ratio) {
    return RejectedError(StrFormat(
        "%s: latency %.2fms exceeds %.2fx control (%.2fms)", phase.name.c_str(),
        canary.latency_ms, phase.max_latency_ratio, control.latency_ms));
  }
  if (canary.crash_rate > phase.max_crash_rate) {
    return RejectedError(StrFormat("%s: crash rate %.4f exceeds ceiling %.4f",
                                   phase.name.c_str(), canary.crash_rate,
                                   phase.max_crash_rate));
  }
  return OkStatus();
}

std::string CanaryScope::Describe() const {
  size_t symbols = 0;
  for (const auto& [path, names] : changed_symbols) {
    symbols += names.size();
  }
  std::string out =
      StrFormat("%zu affected entr%s, %zu changed symbol(s) in %zu "
                "file(s)%s",
                affected_entries.size(),
                affected_entries.size() == 1 ? "y" : "ies", symbols,
                changed_symbols.size(),
                symbol_pruned ? " (symbol-pruned)" : " (file-level)");
  for (const auto& [symbol, delta] : value_deltas) {
    out += "; " + symbol + ": " + delta;
  }
  for (const auto& [predicate, note] : invariant_notes) {
    out += "; invariant [" + predicate + "]: " + note;
  }
  return out;
}

void CanaryService::RunTest(const CanarySpec& spec, const CanaryScope& scope,
                            ServiceModel* model,
                            std::function<void(Status)> done) {
  last_scope_ = scope;
  CLOG(Info) << "canary blast radius: " << scope.Describe();
  RunTest(spec, model, std::move(done));
}

void CanaryService::RunTest(const CanarySpec& spec, ServiceModel* model,
                            std::function<void(Status)> done) {
  if (spec.phases.empty()) {
    done(InvalidArgumentError("canary spec has no phases"));
    return;
  }
  ++active_tests_;
  auto spec_copy = std::make_shared<const CanarySpec>(spec);
  auto wrapped_done = [this, done = std::move(done)](Status status) {
    --active_tests_;
    done(status);
  };
  RunPhase(spec_copy, 0, model, std::move(wrapped_done));
}

void CanaryService::RunPhase(std::shared_ptr<const CanarySpec> spec,
                             size_t phase_idx, ServiceModel* model,
                             std::function<void(Status)> done) {
  const CanaryPhase& phase = spec->phases[phase_idx];
  // Deploy to the phase's servers, hold, then measure and judge.
  sim_->Schedule(kDeployTime + phase.hold_time,
                 [this, spec, phase_idx, model, done = std::move(done)] {
                   const CanaryPhase& p = spec->phases[phase_idx];
                   GroupMetrics canary =
                       model->Measure(true, p.num_servers, options_.fleet_size);
                   GroupMetrics control = model->Measure(
                       false, options_.fleet_size - p.num_servers,
                       options_.fleet_size);
                   Status verdict = EvaluatePhase(p, canary, control);
                   if (!verdict.ok() || phase_idx + 1 == spec->phases.size()) {
                     done(verdict);
                     return;
                   }
                   RunPhase(spec, phase_idx + 1, model, std::move(done));
                 });
}

}  // namespace configerator
