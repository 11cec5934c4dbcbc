#include "configbench/commit_path.h"

#include <set>

#include "src/analysis/absint.h"
#include "src/analysis/invariant.h"
#include "src/analysis/semdiff.h"
#include "src/gatekeeper/compile.h"

namespace configbench {

using namespace configerator;

void CommitPath::EnableTracing(SpanRecorder* spans) {
  spans_ = spans;
  (void)risk_.IndexHistory(stack_->repo());
  unit_cache_ = std::make_unique<CompiledUnitCache>();
  CompilerOptions options;
  options.unit_cache = unit_cache_.get();
  const Repository* repo = &stack_->repo();
  ConfigCompiler compiler(
      [repo](const std::string& path) { return repo->ReadFile(path); },
      options);
  for (const std::string& path : repo->ListFiles()) {
    if (path.ends_with(".cconf")) {
      (void)compiler.Compile(path);
    }
  }
  base_unit_hits_ = unit_cache_->hits();
  base_unit_misses_ = unit_cache_->misses();
  base_output_hits_ = unit_cache_->output_hits();
  base_output_misses_ = unit_cache_->output_misses();
}

void CommitPath::AddCounts(Stats* stats) const {
  const Tracer& tracer = stack_->obs().tracer;
  stats->traces = tracer.trace_count();
  stats->spans = 0;
  for (uint64_t id = 1; id <= tracer.trace_count(); ++id) {
    if (const TraceData* trace = tracer.Find(id)) {
      stats->spans += trace->spans.size();
    }
  }
  if (unit_cache_ == nullptr) {
    return;
  }
  stats->unit_hits += unit_cache_->hits() - base_unit_hits_;
  stats->unit_misses += unit_cache_->misses() - base_unit_misses_;
  stats->output_hits += unit_cache_->output_hits() - base_output_hits_;
  stats->output_misses += unit_cache_->output_misses() - base_output_misses_;
}

// Mirrors ConfigManagementStack::ProposeChange.
Result<PendingChange> CommitPath::Propose(const std::string& author,
                                          const std::string& message,
                                          std::vector<FileWrite> writes) {
  if (spans_ == nullptr) {
    return stack_->ProposeChange(author, message, std::move(writes));
  }
  ScopedSpan propose(spans_, "author.propose");
  Repository& repo = stack_->repo();
  DependencyService& deps = stack_->deps();
  const int64_t now_ms = stack_->sim().now() / kSimMillisecond;

  PendingChange change;
  ProposedDiff source_diff;
  {
    ScopedSpan span(spans_, "pipeline.diff");
    source_diff = MakeProposedDiff(repo, author, message, writes, now_ms);
  }
  Sandcastle sandbox(&repo, &deps);
  FileReader overlay = sandbox.OverlayReader(source_diff);

  std::set<std::string> entries;
  {
    std::vector<std::string> changed;
    for (const FileWrite& write : writes) {
      changed.push_back(write.path);
    }
    for (const std::string& entry : deps.EntriesAffectedBy(changed)) {
      entries.insert(entry);
    }
    for (const FileWrite& write : writes) {
      if (write.path.ends_with(".cconf") && write.content.has_value()) {
        entries.insert(write.path);
      }
    }
  }

  std::vector<FileWrite> all_writes = std::move(writes);
  {
    ScopedSpan span(spans_, "lang.compile");
    ConfigCompiler compiler(overlay);
    for (const std::string& entry : entries) {
      bool entry_deleted = false;
      for (const FileWrite& write : all_writes) {
        if (write.path == entry && !write.content.has_value()) {
          entry_deleted = true;
          break;
        }
      }
      if (entry_deleted) {
        std::string output = ConfigCompiler::OutputPathFor(entry);
        if (repo.FileExists(output)) {
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
  }
  {
    ScopedSpan span(spans_, "pipeline.diff");
    change.diff = MakeProposedDiff(repo, author, message, all_writes, now_ms);
  }

  const ConfigManagementStack::Options& options = stack_->options();
  Tracer& tracer = stack_->obs().tracer;
  SimTime trace_start = now_ms * kSimMillisecond;
  change.trace = tracer.StartTrace("change:" + author, "author", trace_start);
  if (options.run_ci) {
    ScopedSpan span(spans_, "sandcastle.ci");
    TraceContext ci =
        tracer.StartSpan(change.trace, "sandcastle.ci", "sandcastle", trace_start);
    change.ci_report = RunTests(change.diff);
    tracer.EndSpan(ci, trace_start);
  } else {
    change.ci_report.passed = true;
  }
  tracer.EndSpan(change.trace, trace_start);

  {
    ScopedSpan span(spans_, "analysis.symbols");
    change.changed_symbols = DiffChangedSymbols(repo, source_diff);
  }
  {
    ScopedSpan span(spans_, "pipeline.risk");
    if (risk_.IndexHistory(repo).ok()) {
      change.risk = risk_.Assess(
          change.diff, &deps, &change.changed_symbols,
          options.run_ci ? &change.ci_report.semantic_impacts : nullptr,
          options.run_ci ? &change.ci_report.invariant_outcomes : nullptr);
    }
  }
  if (options.require_review) {
    ScopedSpan span(spans_, "pipeline.review");
    ReviewService& reviews = stack_->reviews();
    change.review_id = reviews.Submit(change.diff);
    (void)reviews.PostTestResults(change.review_id, change.ci_report.Summary());
    if (!change.risk.reasons.empty()) {
      std::string note =
          change.risk.high_risk ? "HIGH-RISK change:" : "Risk notes:";
      for (const std::string& reason : change.risk.reasons) {
        note += "\n  " + reason;
      }
      (void)reviews.PostTestResults(change.review_id, std::move(note));
    }
  }
  return change;
}

// Mirrors ConfigManagementStack::Approve.
Status CommitPath::Approve(PendingChange* change, const std::string& reviewer) {
  if (spans_ == nullptr) {
    return stack_->Approve(change, reviewer);
  }
  ScopedSpan span(spans_, "pipeline.review");
  if (!stack_->options().require_review) {
    return OkStatus();
  }
  return stack_->reviews().Approve(change->review_id, reviewer);
}

// Mirrors ConfigManagementStack::TestAndLand with CanarySpec::Default().
void CommitPath::TestAndLand(PendingChange change, ServiceModel* model,
                             std::function<void(Result<ObjectId>)> done) {
  if (spans_ == nullptr) {
    stack_->TestAndLand(std::move(change), CanarySpec::Default(), model,
                        std::move(done));
    return;
  }
  auto change_ptr = std::make_shared<PendingChange>(std::move(change));
  CanarySpec spec = change_ptr->ci_report.provably_noop ? CanarySpec::SmallOnly()
                                                        : CanarySpec::Default();
  Tracer& tracer = stack_->obs().tracer;
  Simulator& sim = stack_->sim();
  TraceContext canary_span = tracer.StartSpan(change_ptr->trace, "canary",
                                              "canary-service", sim.now());
  stack_->canary().RunTest(
      spec, change_ptr->Scope(), model,
      [this, &tracer, &sim, change_ptr, canary_span,
       done = std::move(done)](Status verdict) {
        tracer.EndSpan(canary_span, sim.now());
        if (!verdict.ok()) {
          done(verdict);
          return;
        }
        done(LandNow(*change_ptr));
      });
}

// Mirrors ConfigManagementStack::LandNow.
Result<ObjectId> CommitPath::LandNow(const PendingChange& change) {
  if (!change.ci_report.passed) {
    return RejectedError("CI failed: " + change.ci_report.Summary());
  }
  if (stack_->options().require_review &&
      !stack_->reviews().IsApproved(change.review_id)) {
    return RejectedError("change is not approved");
  }
  ObjectId commit;
  {
    ScopedSpan span(spans_, "vcs.land");
    ASSIGN_OR_RETURN(commit,
                     stack_->landing_strip().Land(change.diff, change.trace));
  }
  ScopedSpan span(spans_, "pipeline.deps_refresh");
  ConfigCompiler compiler = stack_->CompilerAtHead();
  const Repository* repo = &stack_->repo();
  AbstractInterpreter absint(
      [repo](const std::string& path) -> Result<std::string> {
        return repo->ReadFile(path);
      });
  DependencyService& deps = stack_->deps();
  for (const std::string& entry : change.affected_entries) {
    auto output = compiler.Compile(entry);
    if (output.ok()) {
      deps.UpdateEntry(entry, output->dependencies);
      AbsintResult analysis = absint.AnalyzePath(entry);
      if (analysis.analyzed) {
        deps.UpdateEntrySymbols(entry, std::move(analysis.used_symbols),
                                analysis.slice_sound);
      }
    }
  }
  return commit;
}

// Mirrors Sandcastle::RunTests, one span per stage. Sandcastle computes the
// pruned closure once and hands it to its private ReanalyzeClosure; the
// public overload used here recomputes it, which the traced run pays for.
CiReport CommitPath::RunTests(const ProposedDiff& diff) {
  Sandcastle& sandcastle = stack_->sandcastle();
  const DependencyService& deps = stack_->deps();
  CiReport report;
  std::vector<std::string> changed;
  changed.reserve(diff.writes.size());
  for (const FileWrite& write : diff.writes) {
    changed.push_back(write.path);
  }
  std::set<std::string> entries;
  for (const std::string& entry : deps.EntriesAffectedBy(changed)) {
    entries.insert(entry);
  }
  for (const FileWrite& write : diff.writes) {
    if (write.path.ends_with(".cconf") && write.content.has_value()) {
      entries.insert(write.path);
    }
    if (!write.content.has_value()) {
      entries.erase(write.path);
    }
  }

  {
    ScopedSpan span(spans_, "lang.ci_compile");
    CompilerOptions compiler_options;
    compiler_options.unit_cache = unit_cache_.get();
    ConfigCompiler compiler(sandcastle.OverlayReader(diff), compiler_options);
    report.passed = true;
    for (const std::string& entry : entries) {
      auto output = compiler.Compile(entry);
      if (output.ok()) {
        report.compiled_entries.push_back(entry);
      } else {
        report.passed = false;
        report.failures.push_back(entry + ": " + output.status().ToString());
      }
    }
  }
  {
    ScopedSpan span(spans_, "pipeline.validate");
    for (const FileWrite& write : diff.writes) {
      if (!write.content.has_value()) {
        continue;
      }
      Status status = Validate(write.path, *write.content);
      if (!status.ok()) {
        report.passed = false;
        report.failures.push_back(write.path + ": " + status.ToString());
      }
    }
  }
  {
    ScopedSpan span(spans_, "analysis.lint");
    report.lint_findings = sandcastle.RunLint(diff);
  }

  std::set<std::string> closure;
  {
    ScopedSpan span(spans_, "analysis.semdiff");
    auto changed_symbols = DiffChangedSymbols(stack_->repo(), diff);
    std::set<std::string> file_level;
    for (const FileWrite& write : diff.writes) {
      for (const std::string& entry : deps.EntriesAffectedBy({write.path})) {
        file_level.insert(entry);
      }
      auto it = changed_symbols.find(write.path);
      if (it != changed_symbols.end() && it->second.has_value()) {
        for (const std::string& entry :
             deps.EntriesAffectedBySymbols(write.path, *it->second)) {
          closure.insert(entry);
        }
      } else {
        for (const std::string& entry : deps.EntriesAffectedBy({write.path})) {
          closure.insert(entry);
        }
      }
    }
    report.pruned_dependents = file_level.size() - closure.size();

    const Repository* repo = &stack_->repo();
    FileReader head_reader = [repo](const std::string& path) {
      return repo->ReadFile(path);
    };
    SemanticDiffer differ(head_reader, sandcastle.OverlayReader(diff));
    SemanticDiffReport semdiff = differ.Classify(
        changed, std::vector<std::string>(closure.begin(), closure.end()));
    report.semantic_impacts = semdiff.impacts;
    report.provably_noop = semdiff.provably_noop;
    report.lint_findings.insert(report.lint_findings.end(),
                                semdiff.findings.begin(), semdiff.findings.end());
  }
  if (!report.provably_noop) {
    ScopedSpan span(spans_, "analysis.closure");
    sandcastle.ReanalyzeClosure(diff, &report);
  }

  bool touches_invariants = false;
  bool outside_certificate = false;
  for (const FileWrite& write : diff.writes) {
    if (write.path.starts_with("invariants/")) {
      touches_invariants = true;
    }
    bool certified = write.path.ends_with(".cconf") ||
                     write.path.ends_with(".cinc") ||
                     (write.path.starts_with("gatekeeper/") &&
                      write.path.ends_with(".json"));
    if (!certified || !write.content.has_value()) {
      outside_certificate = true;
    }
  }
  if (!report.provably_noop || touches_invariants || outside_certificate) {
    ScopedSpan span(spans_, "analysis.invariants");
    std::set<std::string> scope(changed.begin(), changed.end());
    for (const std::string& entry : report.compiled_entries) {
      scope.insert(ConfigCompiler::OutputPathFor(entry));
    }
    for (const std::string& entry : closure) {
      scope.insert(ConfigCompiler::OutputPathFor(entry));
    }
    sandcastle.RunInvariants(diff, scope, &report);
  }

  // The stack never turns on strict lint, so only errors fail the report.
  if (report.lint_errors() > 0) {
    report.passed = false;
  }
  return report;
}

// Sandcastle's built-in raw-config validators, in its order. The Gatekeeper
// check compiles the project spec, which rejects what the validator's
// GatekeeperProject::FromJson rejects.
Status CommitPath::Validate(const std::string& path,
                            const std::string& content) const {
  if (path.starts_with("gatekeeper/") && path.ends_with(".json")) {
    ASSIGN_OR_RETURN(Json json, Json::Parse(content));
    RETURN_IF_ERROR(CompileProjectSpec(json).status());
  }
  if (path.ends_with(".canary.json")) {
    ASSIGN_OR_RETURN(Json json, Json::Parse(content));
    RETURN_IF_ERROR(CanarySpec::FromJson(json).status());
  }
  if (path.starts_with("invariants/") && path.ends_with(".json")) {
    InvariantRegistry registry;
    registry.AddSpecFile(path, content);
    if (!registry.diagnostics.empty()) {
      return InvalidConfigError(registry.diagnostics.front().message);
    }
  }
  if (path.ends_with(".json")) {
    RETURN_IF_ERROR(Json::Parse(content).status());
  }
  return OkStatus();
}

Status LandImport(ConfigManagementStack* stack, std::vector<FileWrite> files) {
  ASSIGN_OR_RETURN(PendingChange change,
                   stack->ProposeChange("importer", "import", std::move(files)));
  RETURN_IF_ERROR(stack->Approve(&change, "reviewer"));
  return stack->LandNow(change).status();
}

CommitOutcome DriveCommit(ConfigManagementStack* stack, CommitPath* path,
                          ServiceModel* model, SpanRecorder* spans,
                          const char* root, uint64_t op_id,
                          std::vector<FileWrite> writes,
                          const std::function<bool()>& delivered, Stats* stats) {
  // The canary holds a change for ~10 simulated minutes; delivery takes
  // seconds. Slices are coarse while waiting on the canary and fine while
  // waiting on the fleet, so the next change starts soon after delivery.
  constexpr SimTime kCanarySlice = kSimSecond;
  constexpr SimTime kDeliverySlice = 100 * kSimMillisecond;
  constexpr SimTime kDeadline = 30 * kSimMinute;

  Simulator& sim = stack->sim();
  Network& net = stack->network();
  const uint64_t events0 = sim.processed_events();
  const uint64_t messages0 = net.messages_sent();
  const uint64_t bytes0 = net.bytes_sent();
  const int64_t zxid0 = stack->zeus().last_committed_zxid();

  CommitOutcome out;
  Clock::time_point start = Clock::now();
  if (spans != nullptr) {
    spans->BeginOp(op_id, root);
  }
  out.proposed_at = sim.now();
  const SimTime deadline = sim.now() + kDeadline;
  auto change = path->Propose("author", "bench change", std::move(writes));
  out.author_wait_ms = SecondsSince(start) * 1e3;
  if (!change.ok()) {
    out.error = "propose: " + change.status().ToString();
  } else {
    const CiReport& ci = change->ci_report;
    out.noop = ci.provably_noop;
    out.compiled = ci.compiled_entries.size();
    stats->reanalyzed += ci.reanalyzed_entries.size();
    stats->pruned += ci.pruned_dependents;
    stats->noop_certified += ci.provably_noop ? 1 : 0;
    stats->invariants_checked += ci.invariant_outcomes.size();

    Status approved = path->Approve(&*change, "reviewer");
    if (!approved.ok()) {
      out.error = "approve: " + approved.ToString();
    } else {
      // Shared with the callback, which outlives this frame if the canary
      // misses the deadline.
      struct Verdict {
        bool done = false;
        Status status;
        SimTime at = 0;
      };
      auto verdict = std::make_shared<Verdict>();
      path->TestAndLand(*change, model,
                        [verdict, &sim](Result<ObjectId> result) {
                          verdict->done = true;
                          verdict->status = result.status();
                          verdict->at = sim.now();
                        });
      {
        ScopedSpan span(spans, "canary.sim_run");
        while (!verdict->done && sim.now() < deadline) {
          sim.RunUntil(sim.now() + kCanarySlice);
        }
      }
      if (!verdict->done) {
        out.error = "canary did not finish";
      } else if (!verdict->status.ok()) {
        out.error = "land: " + verdict->status.ToString();
      } else {
        out.landed = true;
        out.landed_at = verdict->at;
        ScopedSpan span(spans, "sim.fleet_run");
        while (!delivered() && sim.now() < deadline) {
          sim.RunUntil(sim.now() + kDeliverySlice);
        }
        if (!delivered()) {
          out.error = "not delivered within the deadline";
        }
      }
    }
  }
  out.wall_ms = SecondsSince(start) * 1e3;
  stats->commit_seconds += out.wall_ms * 1e-3;
  if (spans != nullptr) {
    spans->End();
  }

  auto head = stack->repo().head();
  out.head = head.has_value() ? head->ShortHex() : "none";
  ++stats->commits;
  stats->sim_events += sim.processed_events() - events0;
  stats->messages += net.messages_sent() - messages0;
  stats->bytes += net.bytes_sent() - bytes0;
  stats->zxids +=
      static_cast<uint64_t>(stack->zeus().last_committed_zxid() - zxid0);
  stats->Digest((out.landed ? "landed " : "rejected ") + out.head +
                (out.noop ? " noop " : " value ") +
                std::to_string(out.compiled));
  return out;
}

}  // namespace configbench
