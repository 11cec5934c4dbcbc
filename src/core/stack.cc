#include "src/core/stack.h"

#include <set>

#include "src/analysis/store.h"
#include "src/util/logging.h"

namespace configerator {

CanaryScope PendingChange::Scope() const {
  CanaryScope scope;
  scope.affected_entries = affected_entries;
  scope.symbol_pruned = !changed_symbols.empty();
  for (const auto& [path, symbols] : changed_symbols) {
    if (symbols.has_value()) {
      scope.changed_symbols[path] = *symbols;
    } else {
      scope.changed_symbols[path] = {"*"};  // Not comparable: whole file.
      scope.symbol_pruned = false;
    }
  }
  // Annotate the rollout with the abstract old -> new bounds the semantic
  // diff computed for every moved symbol.
  for (const SymbolImpact& impact : ci_report.semantic_impacts) {
    if (impact.kind == ImpactKind::kNoOp ||
        (impact.old_value.empty() && impact.new_value.empty())) {
      continue;
    }
    scope.value_deltas[impact.file + ":" + impact.symbol] =
        (impact.old_value.empty() ? "<absent>" : impact.old_value) + " -> " +
        (impact.new_value.empty() ? "<absent>" : impact.new_value);
  }
  // Invariant annotations ride the rollout: a violated predicate carries its
  // concrete witness (only reachable by force-landing past Sandcastle), an
  // in-jeopardy one flags that the canary now guards a property with no
  // abstract proof behind it.
  for (const InvariantOutcome& outcome : ci_report.invariant_outcomes) {
    if (outcome.status == InvariantStatus::kViolated) {
      scope.invariant_notes[outcome.predicate] =
          "VIOLATED; witness: " + outcome.witness.Describe();
    } else if (outcome.status == InvariantStatus::kInJeopardy) {
      scope.invariant_notes[outcome.predicate] = "in jeopardy: " + outcome.detail;
    }
  }
  return scope;
}

ConfigManagementStack::ConfigManagementStack(Options options)
    : options_(options), repo_("configerator") {
  Topology topology(options_.regions, options_.clusters_per_region,
                    options_.servers_per_cluster);
  network_ = std::make_unique<Network>(&sim_, topology, options_.seed);

  // Zeus ensemble members: spread across regions for resilience (paper:
  // "consensus protocol among servers distributed across multiple regions").
  std::vector<ServerId> members;
  for (size_t i = 0; i < options_.zeus_members; ++i) {
    int region = static_cast<int>(i) % options_.regions;
    members.push_back(ServerId{region, 0, static_cast<int>(i / options_.regions)});
  }
  // Observers: the first observers_per_cluster servers counting from the top
  // of each cluster (keeps them disjoint from ensemble members).
  std::vector<ServerId> observers;
  for (int r = 0; r < options_.regions; ++r) {
    for (int c = 0; c < options_.clusters_per_region; ++c) {
      for (int o = 0; o < options_.observers_per_cluster; ++o) {
        observers.push_back(
            ServerId{r, c, options_.servers_per_cluster - 1 - o});
      }
    }
  }
  zeus_ = std::make_unique<ZeusEnsemble>(network_.get(), members, observers);
  zeus_->AttachObservability(&obs_);

  sandcastle_ = std::make_unique<Sandcastle>(&repo_, &deps_, &obs_.metrics);
  landing_strip_ = std::make_unique<LandingStrip>(&repo_);
  landing_strip_->AttachObservability(&obs_);
  canary_ = std::make_unique<CanaryService>(&sim_, options_.canary);

  // The tailer runs next to the master repository region.
  ServerId tailer_host{0, 0, options_.servers_per_cluster / 2};
  tailer_ = std::make_unique<GitTailer>(network_.get(), tailer_host, &repo_,
                                        zeus_.get(), options_.tailer);
  tailer_->AttachObservability(&obs_);
  tailer_->Start();
}

ConfigCompiler ConfigManagementStack::CompilerAtHead() {
  const Repository* repo = &repo_;
  return sandcastle_->Compiler(
      [repo](const std::string& path) { return repo->ReadFile(path); });
}

Result<PendingChange> ConfigManagementStack::ProposeChange(
    const std::string& author, const std::string& message,
    std::vector<FileWrite> source_writes) {
  PendingChange change;

  // Compile every entry affected by the source writes against an overlay of
  // the writes on head, collecting regenerated JSON outputs.
  ProposedDiff source_diff =
      MakeProposedDiff(repo_, author, message, source_writes, NowMs());
  FileReader overlay = sandcastle_->OverlayReader(source_diff);

  std::set<std::string> entries;
  {
    std::vector<std::string> changed;
    for (const FileWrite& write : source_writes) {
      changed.push_back(write.path);
    }
    for (const std::string& entry : deps_.EntriesAffectedBy(changed)) {
      entries.insert(entry);
    }
    for (const FileWrite& write : source_writes) {
      if (write.path.ends_with(".cconf") && write.content.has_value()) {
        entries.insert(write.path);
      }
    }
  }

  std::vector<FileWrite> all_writes = std::move(source_writes);
  ConfigCompiler compiler = sandcastle_->Compiler(overlay);
  for (const std::string& entry : entries) {
    // A deleted entry removes its generated config.
    bool entry_deleted = false;
    for (const FileWrite& write : all_writes) {
      if (write.path == entry && !write.content.has_value()) {
        entry_deleted = true;
        break;
      }
    }
    if (entry_deleted) {
      std::string output = ConfigCompiler::OutputPathFor(entry);
      if (repo_.FileExists(output)) {
        all_writes.push_back(FileWrite{output, std::nullopt});
      }
      continue;
    }
    ASSIGN_OR_RETURN(CompileOutput output, compiler.Compile(entry));
    for (const CompiledConfig& config : output.configs) {
      all_writes.push_back(FileWrite{config.path, config.content.DumpPretty()});
    }
    change.affected_entries.push_back(entry);
  }

  change.diff = MakeProposedDiff(repo_, author, message, all_writes, NowMs());

  // Root span of the commit trace. Started at the diff's own (ms-floored)
  // timestamp so every later span — including the land span, which reuses
  // diff.timestamp_ms — starts at or after its parent.
  SimTime trace_start = NowMs() * kSimMillisecond;
  change.trace = obs_.tracer.StartTrace("change:" + author, "author", trace_start);

  if (options_.run_ci) {
    TraceContext ci =
        obs_.tracer.StartSpan(change.trace, "sandcastle.ci", "sandcastle", trace_start);
    change.ci_report = sandcastle_->RunTests(change.diff);
    obs_.tracer.EndSpan(ci, trace_start);
  } else {
    change.ci_report.passed = true;
  }
  obs_.tracer.EndSpan(change.trace, trace_start);

  // Symbol-level view of the edit: which top-level symbols each changed CSL
  // file actually modifies. Refines risk fan-in and the canary scope.
  change.changed_symbols = DiffChangedSymbols(
      repo_, source_diff, &sandcastle_->analysis_store());

  // Advisory risk assessment from history (flagging, not blocking). The
  // semantic classification — when CI ran — weights fan-in by severity.
  if (risk_advisor_.IndexHistory(repo_).ok()) {
    change.risk = risk_advisor_.Assess(
        change.diff, &deps_, &change.changed_symbols,
        options_.run_ci ? &change.ci_report.semantic_impacts : nullptr,
        options_.run_ci ? &change.ci_report.invariant_outcomes : nullptr);
  }

  if (options_.require_review) {
    change.review_id = reviews_.Submit(change.diff);
    (void)reviews_.PostTestResults(change.review_id, change.ci_report.Summary());
    if (!change.risk.reasons.empty()) {
      std::string note = change.risk.high_risk ? "HIGH-RISK change:" : "Risk notes:";
      for (const std::string& reason : change.risk.reasons) {
        note += "\n  " + reason;
      }
      (void)reviews_.PostTestResults(change.review_id, std::move(note));
    }
  }
  return change;
}

Status ConfigManagementStack::Approve(PendingChange* change,
                                      const std::string& reviewer) {
  if (!options_.require_review) {
    return OkStatus();
  }
  return reviews_.Approve(change->review_id, reviewer);
}

Result<ObjectId> ConfigManagementStack::LandNow(const PendingChange& change) {
  if (!change.ci_report.passed) {
    return RejectedError("CI failed: " + change.ci_report.Summary());
  }
  if (options_.require_review && !reviews_.IsApproved(change.review_id)) {
    return RejectedError("change is not approved");
  }
  ASSIGN_OR_RETURN(ObjectId commit, landing_strip_->Land(change.diff, change.trace));
  // Refresh the dependency graph for recompiled entries: file-level edges
  // from the compile, symbol-level slices from the abstract interpreter so
  // future diffs can prune dependents the edit provably can't reach. CI
  // compiled and analyzed these versions already, so both are lookups.
  ConfigCompiler compiler = CompilerAtHead();
  const Repository* repo = &repo_;
  FileReader head = [repo](const std::string& path) {
    return repo->ReadFile(path);
  };
  for (const std::string& entry : change.affected_entries) {
    auto output = compiler.Compile(entry);
    auto content = repo_.ReadFile(entry);
    if (output.ok() && content.ok()) {
      deps_.UpdateEntry(entry, output->dependencies);
      std::shared_ptr<const AbsintResult> analysis = AnalysisStore::Absint(
          &sandcastle_->analysis_store(), head, entry, *content);
      if (analysis->analyzed) {
        deps_.UpdateEntrySymbols(entry, analysis->used_symbols,
                                 analysis->slice_sound);
      }
    }
  }
  return commit;
}

Result<CanarySpec> ConfigManagementStack::CanarySpecFor(
    const std::string& config_path) const {
  auto stored = repo_.ReadFile(config_path + ".canary.json");
  if (!stored.ok()) {
    if (stored.status().code() == StatusCode::kNotFound) {
      return CanarySpec::Default();
    }
    return stored.status();
  }
  ASSIGN_OR_RETURN(Json json, Json::Parse(*stored));
  return CanarySpec::FromJson(json);
}

void ConfigManagementStack::TestAndLand(
    PendingChange change, const CanarySpec& spec, ServiceModel* model,
    std::function<void(Result<ObjectId>)> done) {
  auto change_ptr = std::make_shared<PendingChange>(std::move(change));
  // Certified no-op landings (comment/reformat-only) take the fast-path
  // canary: the 20-server phase alone, skipping the cluster-sized hold — no
  // value moves, so there is nothing for load to expose.
  CanarySpec effective_spec =
      change_ptr->ci_report.provably_noop ? CanarySpec::SmallOnly() : spec;
  if (change_ptr->ci_report.provably_noop) {
    CLOG(Info) << "canary: provably no-op change, fast-path spec";
  }
  TraceContext canary_span = obs_.tracer.StartSpan(
      change_ptr->trace, "canary", "canary-service", sim_.now());
  canary_->RunTest(effective_spec, change_ptr->Scope(), model,
                   [this, change_ptr, canary_span,
                    done = std::move(done)](Status verdict) {
                     obs_.tracer.EndSpan(canary_span, sim_.now());
                     if (!verdict.ok()) {
                       done(verdict);
                       return;
                     }
                     done(LandNow(*change_ptr));
                   });
}

ConfigProxy* ConfigManagementStack::ProxyOn(const ServerId& server) {
  auto it = servers_.find(server);
  if (it == servers_.end()) {
    ServerRuntime runtime;
    runtime.disk = std::make_unique<OnDiskCache>();
    runtime.proxy = std::make_unique<ConfigProxy>(
        network_.get(), zeus_.get(), server, runtime.disk.get(), proxy_seed_++);
    runtime.proxy->AttachObservability(&obs_);
    it = servers_.emplace(server, std::move(runtime)).first;
  }
  return it->second.proxy.get();
}

AppConfigClient ConfigManagementStack::ClientOn(const ServerId& server) {
  ConfigProxy* proxy = ProxyOn(server);
  return AppConfigClient(proxy, servers_.at(server).disk.get());
}

void ConfigManagementStack::SubscribeServer(const ServerId& server,
                                            const std::string& path,
                                            ConfigProxy::UpdateCallback on_update) {
  ProxyOn(server)->Subscribe(path, std::move(on_update));
}

}  // namespace configerator
