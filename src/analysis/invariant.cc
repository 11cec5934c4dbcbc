#include "src/analysis/invariant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "src/analysis/absint.h"
#include "src/analysis/store.h"
#include "src/gatekeeper/compile.h"
#include "src/util/ddmin.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Abstract case combinations evaluated per invariant before falling back to
// concrete validation (branch-arm cross products can explode).
constexpr size_t kMaxCasePairs = 64;
// Concrete contexts enumerated per gatekeeper invariant.
constexpr size_t kMaxGateContexts = 512;

}  // namespace

// ---- Names and renders ------------------------------------------------------

std::string_view InvariantKindName(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kOrdering:
      return "ordering";
    case InvariantKind::kSum:
      return "sum";
    case InvariantKind::kMembership:
      return "membership";
    case InvariantKind::kReference:
      return "reference";
    case InvariantKind::kGateImplies:
      return "gate_implies";
    case InvariantKind::kGateContext:
      return "gate_context";
  }
  return "unknown";
}

std::string_view InvariantRelationName(InvariantRelation relation) {
  switch (relation) {
    case InvariantRelation::kLt:
      return "<";
    case InvariantRelation::kLe:
      return "<=";
    case InvariantRelation::kEq:
      return "==";
    case InvariantRelation::kNe:
      return "!=";
    case InvariantRelation::kGe:
      return ">=";
    case InvariantRelation::kGt:
      return ">";
  }
  return "?";
}

std::string_view InvariantStatusName(InvariantStatus status) {
  switch (status) {
    case InvariantStatus::kProven:
      return "proven";
    case InvariantStatus::kViolated:
      return "violated";
    case InvariantStatus::kInJeopardy:
      return "in-jeopardy";
    case InvariantStatus::kUnresolved:
      return "unresolved";
  }
  return "unknown";
}

std::string SymbolRef::Describe() const {
  return field.empty() ? config : config + ":" + field;
}

std::string InvariantSpec::Describe() const {
  std::string out(InvariantKindName(kind));
  out += ": ";
  switch (kind) {
    case InvariantKind::kOrdering:
      out += lhs.Describe();
      out += " ";
      out += InvariantRelationName(relation);
      out += " " + rhs.Describe();
      break;
    case InvariantKind::kSum: {
      out += "sum(";
      for (size_t i = 0; i < terms.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += terms[i].Describe();
      }
      out += ") ";
      out += InvariantRelationName(relation);
      out += StrFormat(" %g", budget);
      break;
    }
    case InvariantKind::kMembership: {
      out += subject.Describe() + " in {";
      for (size_t i = 0; i < allowed.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += allowed[i].Dump();
      }
      out += "}";
      break;
    }
    case InvariantKind::kReference:
      out += subject.Describe() + " names an existing config";
      break;
    case InvariantKind::kGateImplies:
      out += if_project + " implies " + then_project;
      break;
    case InvariantKind::kGateContext: {
      out += project + " consults only {";
      for (size_t i = 0; i < allowed_fields.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        out += allowed_fields[i];
      }
      out += "}";
      break;
    }
  }
  return out;
}

std::set<std::string> InvariantSpec::ReferencedConfigs() const {
  std::set<std::string> out;
  switch (kind) {
    case InvariantKind::kOrdering:
      out.insert(lhs.config);
      out.insert(rhs.config);
      break;
    case InvariantKind::kSum:
      for (const SymbolRef& term : terms) {
        out.insert(term.config);
      }
      break;
    case InvariantKind::kMembership:
    case InvariantKind::kReference:
      out.insert(subject.config);
      break;
    case InvariantKind::kGateImplies:
      out.insert(if_project);
      out.insert(then_project);
      break;
    case InvariantKind::kGateContext:
      out.insert(project);
      break;
  }
  return out;
}

// ---- Registry parsing -------------------------------------------------------

namespace {

std::optional<InvariantRelation> ParseRelation(const std::string& text) {
  if (text == "<") return InvariantRelation::kLt;
  if (text == "<=") return InvariantRelation::kLe;
  if (text == "==") return InvariantRelation::kEq;
  if (text == "!=") return InvariantRelation::kNe;
  if (text == ">=") return InvariantRelation::kGe;
  if (text == ">") return InvariantRelation::kGt;
  return std::nullopt;
}

std::optional<SymbolRef> ParseRef(const Json* json) {
  if (json == nullptr || !json->is_object()) {
    return std::nullopt;
  }
  const Json* config = json->Get("config");
  if (config == nullptr || !config->is_string() ||
      config->as_string().empty()) {
    return std::nullopt;
  }
  SymbolRef ref;
  ref.config = config->as_string();
  const Json* field = json->Get("field");
  if (field != nullptr) {
    if (!field->is_string()) {
      return std::nullopt;
    }
    ref.field = field->as_string();
  }
  return ref;
}

// Returns an error message, or "" on success.
std::string ParseInvariant(const Json& json, InvariantSpec* spec) {
  const Json* name = json.Get("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return "missing or empty 'name'";
  }
  spec->name = name->as_string();
  const Json* kind = json.Get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return "missing 'kind'";
  }
  const std::string& kind_text = kind->as_string();
  if (kind_text == "ordering") {
    spec->kind = InvariantKind::kOrdering;
  } else if (kind_text == "sum") {
    spec->kind = InvariantKind::kSum;
  } else if (kind_text == "membership") {
    spec->kind = InvariantKind::kMembership;
  } else if (kind_text == "reference") {
    spec->kind = InvariantKind::kReference;
  } else if (kind_text == "gate_implies") {
    spec->kind = InvariantKind::kGateImplies;
  } else if (kind_text == "gate_context") {
    spec->kind = InvariantKind::kGateContext;
  } else {
    return "unknown kind '" + kind_text + "'";
  }
  const Json* severity = json.Get("severity");
  if (severity != nullptr) {
    if (!severity->is_string() || (severity->as_string() != "error" &&
                                   severity->as_string() != "warning")) {
      return "severity must be \"error\" or \"warning\"";
    }
    spec->severity = severity->as_string() == "error" ? LintSeverity::kError
                                                      : LintSeverity::kWarning;
  }
  const Json* relation = json.Get("relation");
  if (relation != nullptr) {
    if (!relation->is_string()) {
      return "relation must be a string";
    }
    auto parsed = ParseRelation(relation->as_string());
    if (!parsed.has_value()) {
      return "unknown relation '" + relation->as_string() + "'";
    }
    spec->relation = *parsed;
  }

  switch (spec->kind) {
    case InvariantKind::kOrdering: {
      auto lhs = ParseRef(json.Get("lhs"));
      auto rhs = ParseRef(json.Get("rhs"));
      if (!lhs.has_value() || !rhs.has_value()) {
        return "ordering needs 'lhs' and 'rhs' refs ({\"config\", \"field\"})";
      }
      if (relation == nullptr) {
        return "ordering needs a 'relation'";
      }
      spec->lhs = std::move(*lhs);
      spec->rhs = std::move(*rhs);
      break;
    }
    case InvariantKind::kSum: {
      const Json* terms = json.Get("terms");
      if (terms == nullptr || !terms->is_array() || terms->size() == 0) {
        return "sum needs a non-empty 'terms' list";
      }
      for (const Json& term : terms->as_array()) {
        auto ref = ParseRef(&term);
        if (!ref.has_value()) {
          return "sum term is not a valid ref ({\"config\", \"field\"})";
        }
        spec->terms.push_back(std::move(*ref));
      }
      const Json* budget = json.Get("budget");
      if (budget == nullptr || !budget->is_number()) {
        return "sum needs a numeric 'budget'";
      }
      spec->budget = budget->as_double();
      break;
    }
    case InvariantKind::kMembership: {
      auto subject = ParseRef(json.Get("subject"));
      if (!subject.has_value()) {
        return "membership needs a 'subject' ref";
      }
      spec->subject = std::move(*subject);
      const Json* allowed = json.Get("allowed");
      if (allowed == nullptr || !allowed->is_array() || allowed->size() == 0) {
        return "membership needs a non-empty 'allowed' list";
      }
      for (const Json& value : allowed->as_array()) {
        if (value.is_array() || value.is_object()) {
          return "membership 'allowed' values must be scalars";
        }
        spec->allowed.push_back(value);
      }
      break;
    }
    case InvariantKind::kReference: {
      auto subject = ParseRef(json.Get("subject"));
      if (!subject.has_value()) {
        return "reference needs a 'subject' ref";
      }
      spec->subject = std::move(*subject);
      break;
    }
    case InvariantKind::kGateImplies: {
      const Json* if_project = json.Get("if_project");
      const Json* then_project = json.Get("then_project");
      if (if_project == nullptr || !if_project->is_string() ||
          then_project == nullptr || !then_project->is_string()) {
        return "gate_implies needs 'if_project' and 'then_project' paths";
      }
      spec->if_project = if_project->as_string();
      spec->then_project = then_project->as_string();
      break;
    }
    case InvariantKind::kGateContext: {
      const Json* project = json.Get("project");
      if (project == nullptr || !project->is_string()) {
        return "gate_context needs a 'project' path";
      }
      spec->project = project->as_string();
      const Json* fields = json.Get("allowed_fields");
      if (fields == nullptr || !fields->is_array()) {
        return "gate_context needs an 'allowed_fields' list";
      }
      for (const Json& field : fields->as_array()) {
        if (!field.is_string()) {
          return "allowed_fields entries must be strings";
        }
        spec->allowed_fields.push_back(field.as_string());
      }
      break;
    }
  }
  return "";
}

LintDiagnostic MakeSpecError(const std::string& file, int line,
                             std::string message) {
  LintDiagnostic diag;
  diag.rule_id = "I000";
  diag.severity = LintSeverity::kError;
  diag.file = file;
  diag.line = line;
  diag.message = std::move(message);
  diag.suggestion = "fix the invariant spec entry";
  return diag;
}

}  // namespace

void InvariantRegistry::AddSpecFile(const std::string& file,
                                    const std::string& content) {
  auto parsed = Json::Parse(content);
  if (!parsed.ok()) {
    diagnostics.push_back(MakeSpecError(
        file, 0,
        "invariant spec does not parse: " + parsed.status().ToString()));
    return;
  }
  const Json* list = parsed->Get("invariants");
  if (list == nullptr || !list->is_array()) {
    diagnostics.push_back(
        MakeSpecError(file, 0, "invariant spec needs an 'invariants' array"));
    return;
  }
  int index = 0;
  for (const Json& entry : list->as_array()) {
    InvariantSpec spec;
    spec.file = file;
    spec.index = index;
    std::string error =
        entry.is_object() ? ParseInvariant(entry, &spec) : "entry is not an object";
    if (!error.empty()) {
      // Line = 1-based position in the array: deterministic ordering for
      // multiple malformed entries in one file.
      diagnostics.push_back(MakeSpecError(
          file, index + 1,
          StrFormat("invariant #%d%s: %s", index,
                    spec.name.empty() ? "" : (" ('" + spec.name + "')").c_str(),
                    error.c_str())));
    } else {
      for (const std::string& path : spec.ReferencedConfigs()) {
        activated_by[path].push_back(invariants.size());
      }
      activated_by[file].push_back(invariants.size());
      invariants.push_back(std::move(spec));
    }
    ++index;
  }
}

InvariantRegistry InvariantRegistry::Load(
    const FileReader& reader, const std::vector<std::string>& spec_files) {
  InvariantRegistry registry;
  for (const std::string& file : spec_files) {
    auto content = reader(file);
    if (content.ok()) {
      registry.AddSpecFile(file, *content);
    }
  }
  SortDiagnostics(&registry.diagnostics);
  return registry;
}

// ---- Abstract evaluation ----------------------------------------------------

namespace {

// A numeric view of one field's lattice facts.
struct NumInterval {
  bool known = false;  // Pinned to a numeric kind with usable bounds.
  bool maybe_absent = false;
  double lo = -kInf;
  double hi = kInf;
};

NumInterval IntervalOf(const AbstractFieldFacts& facts) {
  NumInterval out;
  out.maybe_absent = facts.maybe_absent;
  if (facts.constant.has_value() && facts.constant->is_number()) {
    out.known = true;
    out.lo = out.hi = facts.constant->as_double();
    return out;
  }
  if (!facts.any && facts.kinds != 0 &&
      (facts.kinds & ~(kAbsInt | kAbsDouble)) == 0) {
    out.known = true;
    if (facts.int_min.has_value()) {
      out.lo = static_cast<double>(*facts.int_min);
    }
    if (facts.int_max.has_value()) {
      out.hi = static_cast<double>(*facts.int_max);
    }
  }
  return out;
}

enum class Tri { kHolds, kFails, kUnknown };

InvariantRelation Negate(InvariantRelation r) {
  switch (r) {
    case InvariantRelation::kLt:
      return InvariantRelation::kGe;
    case InvariantRelation::kLe:
      return InvariantRelation::kGt;
    case InvariantRelation::kEq:
      return InvariantRelation::kNe;
    case InvariantRelation::kNe:
      return InvariantRelation::kEq;
    case InvariantRelation::kGe:
      return InvariantRelation::kLt;
    case InvariantRelation::kGt:
      return InvariantRelation::kLe;
  }
  return r;
}

// Does the relation hold for EVERY (a, b) in the intervals?
bool HoldsAlways(const NumInterval& a, InvariantRelation r,
                 const NumInterval& b) {
  switch (r) {
    case InvariantRelation::kLt:
      return a.hi < b.lo;
    case InvariantRelation::kLe:
      return a.hi <= b.lo;
    case InvariantRelation::kEq:
      return std::isfinite(a.lo) && a.lo == a.hi && b.lo == b.hi &&
             a.lo == b.lo;
    case InvariantRelation::kNe:
      return a.hi < b.lo || a.lo > b.hi;
    case InvariantRelation::kGe:
      return a.lo >= b.hi;
    case InvariantRelation::kGt:
      return a.lo > b.hi;
  }
  return false;
}

Tri DecideRelation(const NumInterval& a, InvariantRelation r,
                   const NumInterval& b) {
  if (!a.known || !b.known || a.maybe_absent || b.maybe_absent) {
    return Tri::kUnknown;
  }
  if (HoldsAlways(a, r, b)) {
    return Tri::kHolds;
  }
  if (HoldsAlways(a, Negate(r), b)) {
    return Tri::kFails;
  }
  return Tri::kUnknown;
}

bool RelationHoldsConcrete(double a, InvariantRelation r, double b) {
  switch (r) {
    case InvariantRelation::kLt:
      return a < b;
    case InvariantRelation::kLe:
      return a <= b;
    case InvariantRelation::kEq:
      return a == b;
    case InvariantRelation::kNe:
      return a != b;
    case InvariantRelation::kGe:
      return a >= b;
    case InvariantRelation::kGt:
      return a > b;
  }
  return false;
}

// Loose scalar equality between a lattice constant and a spec literal
// (ints and doubles compare numerically).
bool ValueMatchesJson(const Value& value, const Json& json) {
  if (value.is_string() && json.is_string()) {
    return value.as_string() == json.as_string();
  }
  if (value.is_bool() && json.is_bool()) {
    return value.as_bool() == json.as_bool();
  }
  if (value.is_number() && json.is_number()) {
    return value.as_double() == json.as_double();
  }
  if (value.is_null() && json.is_null()) {
    return true;
  }
  return false;
}

bool JsonScalarEqual(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) {
    return a.as_double() == b.as_double();
  }
  return a == b;
}

void FlattenJsonFacts(const Json& json, const std::string& prefix, int depth,
                      AbstractFieldMap* out) {
  constexpr int kMaxDepth = 6;
  constexpr size_t kMaxEntries = 256;
  if (out->size() >= kMaxEntries) {
    return;
  }
  AbstractFieldFacts& facts = (*out)[prefix];
  facts.any = false;
  facts.maybe_absent = false;
  if (json.is_null()) {
    facts.kinds = kAbsNull;
    facts.constant = Value::Null();
  } else if (json.is_bool()) {
    facts.kinds = kAbsBool;
    facts.constant = Value::Bool(json.as_bool());
  } else if (json.is_int()) {
    facts.kinds = kAbsInt;
    facts.constant = Value::Int(json.as_int());
    facts.int_min = facts.int_max = json.as_int();
  } else if (json.is_double()) {
    facts.kinds = kAbsDouble;
    facts.constant = Value::Double(json.as_double());
  } else if (json.is_string()) {
    facts.kinds = kAbsString;
    facts.constant = Value::Str(json.as_string());
  } else if (json.is_array()) {
    facts.kinds = kAbsList;
  } else if (json.is_object()) {
    facts.kinds = kAbsDict;
    if (depth < kMaxDepth) {
      for (const auto& [key, child] : json.as_object()) {
        std::string path = prefix.empty() ? key : prefix + "." + key;
        FlattenJsonFacts(child, path, depth + 1, out);
      }
    }
  }
}

// The abstract view of one config: every export case (one per `export` call
// site that produced this output path — the branch-arm case basis), or a
// single exact case from a raw JSON file.
struct AbstractCases {
  bool resolved = false;
  std::vector<AbstractFieldMap> cases;
};

// Resolves and caches abstract facts per config path.
class AbstractResolver {
 public:
  AbstractResolver(const FileReader& reader, AnalysisStore& store)
      : reader_(reader), store_(store) {}

  const AbstractCases& Resolve(const std::string& config) {
    auto it = cache_.find(config);
    if (it != cache_.end()) {
      return it->second;
    }
    AbstractCases out;
    if (config.ends_with(".json")) {
      std::string entry =
          config.substr(0, config.size() - strlen(".json")) + ".cconf";
      auto content = reader_(entry);
      if (content.ok()) {
        std::shared_ptr<const AbsintResult> result =
            store_.Absint(reader_, entry, *content);
        for (const ExportSlice& slice : result->exports) {
          if (slice.path == config) {
            out.cases.push_back(slice.fields);
          }
        }
        out.resolved = !out.cases.empty();
      }
    }
    if (!out.resolved) {
      auto content = reader_(config);
      if (content.ok()) {
        auto parsed = Json::Parse(*content);
        if (parsed.ok()) {
          AbstractFieldMap fields;
          FlattenJsonFacts(*parsed, "", 0, &fields);
          out.cases.push_back(std::move(fields));
          out.resolved = true;
        }
      }
    }
    return cache_.emplace(config, std::move(out)).first->second;
  }

 private:
  const FileReader& reader_;
  AnalysisStore& store_;
  std::map<std::string, AbstractCases> cache_;
};

// Facts for `ref` in one case; a missing field reads as maybe-absent unknown.
AbstractFieldFacts FactsFor(const AbstractFieldMap& fields,
                            const SymbolRef& ref) {
  auto it = fields.find(ref.field);
  if (it != fields.end()) {
    return it->second;
  }
  AbstractFieldFacts absent;
  absent.maybe_absent = true;
  return absent;
}

// Interval join of a ref over all of its config's cases.
NumInterval JoinInterval(const AbstractCases& cases, const SymbolRef& ref) {
  NumInterval out;
  bool first = true;
  for (const AbstractFieldMap& fields : cases.cases) {
    NumInterval one = IntervalOf(FactsFor(fields, ref));
    if (!one.known) {
      return NumInterval{};  // Unknown anywhere -> unknown overall.
    }
    if (first) {
      out = one;
      first = false;
    } else {
      out.lo = std::min(out.lo, one.lo);
      out.hi = std::max(out.hi, one.hi);
      out.maybe_absent = out.maybe_absent || one.maybe_absent;
    }
  }
  out.known = !first;
  return out;
}

// ---- Gatekeeper predicates --------------------------------------------------

// One axis of the probed context space: a context field (one attribute of
// an attribute map) plus candidate values, index 0 its default.
struct ContextAxis {
  const ContextField* field = nullptr;
  std::string attr;
  std::string name;          // ContextProbe::Name(), as witnesses print it.
  std::vector<Json> values;  // values[0] = default.
};

struct GateProject {
  bool resolved = false;
  Json json;
  CompiledProjectSpec spec;
};

GateProject LoadProject(const FileReader& reader, const std::string& path) {
  GateProject out;
  auto content = reader(path);
  if (!content.ok()) {
    return out;
  }
  auto parsed = Json::Parse(*content);
  if (!parsed.ok()) {
    return out;
  }
  auto compiled = CompileProjectSpec(*parsed);
  if (!compiled.ok()) {
    return out;
  }
  out.json = std::move(*parsed);
  out.spec = std::move(*compiled);
  out.resolved = true;
  return out;
}

// A context is eligible when any rule with a positive pass probability
// matches — sampling percentages roll out over time, so eligibility (not the
// die) is the property invariants reason about.
bool Eligible(const CompiledProjectSpec& spec, const UserContext& user) {
  for (const CompiledRuleSpec& rule : spec.rules) {
    if (rule.pass_probability > 0 && RuleMatches(rule, user, nullptr)) {
      return true;
    }
  }
  return false;
}

// The context space of `projects`: the boundary probes their restraints
// report (member values, thresholds +/- 1, bucket edges), one axis per
// field sorted by name, each value once, in probe order after the default.
std::vector<ContextAxis> ProbeAxes(
    std::initializer_list<const CompiledProjectSpec*> projects) {
  std::map<std::string, ContextAxis> by_name;
  for (const CompiledProjectSpec* project : projects) {
    for (const CompiledRuleSpec& rule : project->rules) {
      for (const auto& restraint : rule.restraints) {
        for (ContextProbe& probe : restraint->Probes()) {
          const ContextField* field = FindContextField(probe.field);
          if (field == nullptr) {
            continue;
          }
          std::string name = probe.Name();
          ContextAxis& axis = by_name[name];
          if (axis.field == nullptr) {
            axis.field = field;
            axis.name = std::move(name);
            axis.attr = std::move(probe.attr);
            axis.values.push_back(ContextFieldDefault(*field));
          }
          bool duplicate = false;
          for (const Json& existing : axis.values) {
            duplicate = duplicate || JsonScalarEqual(existing, probe.value);
          }
          if (!duplicate) {
            axis.values.push_back(std::move(probe.value));
          }
        }
      }
    }
  }
  std::vector<ContextAxis> axes;
  for (auto& [name, axis] : by_name) {
    axes.push_back(std::move(axis));
  }
  return axes;
}

UserContext ContextAt(const std::vector<ContextAxis>& axes,
                      const std::vector<size_t>& choice) {
  UserContext user;
  for (size_t i = 0; i < axes.size(); ++i) {
    SetContextField(*axes[i].field, axes[i].attr, axes[i].values[choice[i]],
                    &user);
  }
  return user;
}

std::vector<std::pair<std::string, std::string>> RenderContext(
    const std::vector<ContextAxis>& axes, const std::vector<size_t>& choice) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < axes.size(); ++i) {
    if (choice[i] != 0) {
      out.emplace_back(axes[i].name, axes[i].values[choice[i]].Dump());
    }
  }
  return out;
}

// Syntactic implication: every positive if-rule's restraint set is a
// superset of some positive then-rule's (a conjunction with more terms is
// stronger), restraints keyed by their full JSON spec.
bool SyntacticImplication(const Json& if_project, const Json& then_project) {
  auto rule_keys = [](const Json& project) {
    std::vector<std::pair<double, std::set<std::string>>> out;
    const Json* rules = project.Get("rules");
    if (rules == nullptr || !rules->is_array()) {
      return out;
    }
    for (const Json& rule : rules->as_array()) {
      const Json* pass = rule.Get("pass_probability");
      double p = pass != nullptr && pass->is_number() ? pass->as_double() : 0;
      std::set<std::string> keys;
      const Json* restraints = rule.Get("restraints");
      if (restraints != nullptr && restraints->is_array()) {
        for (const Json& restraint : restraints->as_array()) {
          keys.insert(restraint.Dump());
        }
      }
      out.emplace_back(p, std::move(keys));
    }
    return out;
  };
  auto if_rules = rule_keys(if_project);
  auto then_rules = rule_keys(then_project);
  for (const auto& [if_p, if_keys] : if_rules) {
    if (if_p <= 0) {
      continue;
    }
    bool covered = false;
    for (const auto& [then_p, then_keys] : then_rules) {
      if (then_p <= 0) {
        continue;
      }
      if (std::includes(if_keys.begin(), if_keys.end(), then_keys.begin(),
                        then_keys.end())) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return false;
    }
  }
  return true;
}

// ---- Diagnostics ------------------------------------------------------------

std::string_view RuleIdFor(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kOrdering:
      return "I001";
    case InvariantKind::kSum:
      return "I002";
    case InvariantKind::kMembership:
      return "I003";
    case InvariantKind::kReference:
      return "I004";
    case InvariantKind::kGateImplies:
      return "I005";
    case InvariantKind::kGateContext:
      return "I006";
  }
  return "I000";
}

LintDiagnostic ViolationDiagnostic(const InvariantSpec& spec,
                                   const Witness& witness) {
  LintDiagnostic diag;
  diag.rule_id = std::string(RuleIdFor(spec.kind));
  diag.severity = spec.severity;
  diag.file = spec.file;
  diag.line = spec.index + 1;
  diag.message = "invariant '" + spec.name + "' violated (" + spec.Describe() +
                 "); witness: " + witness.Describe();
  diag.suggestion = "fix the violating config values or update the invariant";
  return diag;
}

LintDiagnostic UnresolvedDiagnostic(const InvariantSpec& spec,
                                    const std::string& config) {
  LintDiagnostic diag;
  diag.rule_id = "I004";
  diag.severity = LintSeverity::kError;
  diag.file = spec.file;
  diag.line = spec.index + 1;
  diag.message = "invariant '" + spec.name + "' references config '" + config +
                 "' that resolves to neither an entry output nor a JSON "
                 "config";
  diag.suggestion = "restore the config or update the invariant";
  return diag;
}

}  // namespace

// ---- Report -----------------------------------------------------------------

std::string InvariantReport::Summary() const {
  return StrFormat(
      "invariants: %zu proven, %zu violated, %zu in-jeopardy, %zu "
      "unresolved, %zu skipped",
      proven, violated, in_jeopardy, unresolved, skipped);
}

// ---- Checker ----------------------------------------------------------------

InvariantChecker::InvariantChecker(FileReader reader)
    : reader_(std::move(reader)),
      owned_store_(std::make_unique<AnalysisStore>()),
      store_(owned_store_.get()) {}

InvariantChecker::InvariantChecker(FileReader reader, AnalysisStore& store)
    : reader_(std::move(reader)), store_(&store) {}

InvariantReport InvariantChecker::Check(const InvariantRegistry& registry,
                                        const std::set<std::string>& scope) {
  InvariantReport report;
  report.diagnostics = registry.diagnostics;  // I000 registry errors.

  AbstractResolver resolver(reader_, *store_);
  ConcreteEvaluator concrete(reader_, store_->units());

  // Activation: the blast radius touches a referenced config, or the spec
  // file itself. Empty scope = full audit.
  std::vector<bool> active(registry.invariants.size(), scope.empty());
  for (const std::string& path : scope) {
    auto it = registry.activated_by.find(path);
    if (it != registry.activated_by.end()) {
      for (size_t index : it->second) {
        active[index] = true;
      }
    }
  }
  for (size_t index = 0; index < registry.invariants.size(); ++index) {
    const InvariantSpec& spec = registry.invariants[index];
    if (!active[index]) {
      ++report.skipped;
      continue;
    }

    InvariantOutcome outcome;
    outcome.name = spec.name;
    outcome.kind = spec.kind;
    outcome.severity = spec.severity;
    outcome.predicate = spec.Describe();

    switch (spec.kind) {
      case InvariantKind::kOrdering: {
        const AbstractCases& lhs = resolver.Resolve(spec.lhs.config);
        const AbstractCases& rhs = resolver.Resolve(spec.rhs.config);
        if (!lhs.resolved || !rhs.resolved) {
          outcome.status = InvariantStatus::kUnresolved;
          const std::string& missing =
              !lhs.resolved ? spec.lhs.config : spec.rhs.config;
          outcome.detail = "unresolvable config: " + missing;
          report.diagnostics.push_back(UnresolvedDiagnostic(spec, missing));
          break;
        }
        // Case split: every (lhs case, rhs case) pair must hold.
        bool all_hold = true;
        std::string undecided;
        size_t pairs = 0;
        for (const AbstractFieldMap& lcase : lhs.cases) {
          for (const AbstractFieldMap& rcase : rhs.cases) {
            if (++pairs > kMaxCasePairs) {
              all_hold = false;
              undecided = "case budget exhausted";
              break;
            }
            Tri decided = DecideRelation(IntervalOf(FactsFor(lcase, spec.lhs)),
                                         spec.relation,
                                         IntervalOf(FactsFor(rcase, spec.rhs)));
            if (decided != Tri::kHolds) {
              all_hold = false;
              undecided = StrFormat(
                  "case %zu %s", pairs,
                  decided == Tri::kFails ? "fails abstractly" : "undecided");
            }
          }
          if (!all_hold && undecided == "case budget exhausted") {
            break;
          }
        }
        outcome.cases_checked = pairs;
        if (all_hold) {
          outcome.status = InvariantStatus::kProven;
          break;
        }
        // Concrete validation: the only path to a violation report.
        std::optional<Json> a = concrete.Field(spec.lhs.config, spec.lhs.field);
        std::optional<Json> b = concrete.Field(spec.rhs.config, spec.rhs.field);
        if (a.has_value() && b.has_value() && a->is_number() &&
            b->is_number() &&
            !RelationHoldsConcrete(a->as_double(), spec.relation,
                                   b->as_double())) {
          outcome.status = InvariantStatus::kViolated;
          outcome.witness.valuation.emplace_back(spec.lhs.Describe(),
                                                 RenderWitnessValue(*a));
          outcome.witness.valuation.emplace_back(spec.rhs.Describe(),
                                                 RenderWitnessValue(*b));
          outcome.witness.predicate = StrFormat(
              "%s %s %s is false", RenderWitnessValue(*a).c_str(),
              std::string(InvariantRelationName(spec.relation)).c_str(),
              RenderWitnessValue(*b).c_str());
          outcome.witness.validated = true;
          report.diagnostics.push_back(
              ViolationDiagnostic(spec, outcome.witness));
        } else {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = undecided + "; concrete values at head satisfy "
                                       "the predicate";
        }
        break;
      }

      case InvariantKind::kSum: {
        NumInterval sum;
        sum.known = true;
        sum.lo = sum.hi = 0;
        bool resolved_all = true;
        for (const SymbolRef& term : spec.terms) {
          const AbstractCases& cases = resolver.Resolve(term.config);
          if (!cases.resolved) {
            outcome.status = InvariantStatus::kUnresolved;
            outcome.detail = "unresolvable config: " + term.config;
            report.diagnostics.push_back(
                UnresolvedDiagnostic(spec, term.config));
            resolved_all = false;
            break;
          }
          outcome.cases_checked += cases.cases.size();
          NumInterval joined = JoinInterval(cases, term);
          if (!joined.known || joined.maybe_absent) {
            sum.known = false;
          } else {
            sum.lo += joined.lo;
            sum.hi += joined.hi;
          }
        }
        if (!resolved_all) {
          break;
        }
        NumInterval budget;
        budget.known = true;
        budget.lo = budget.hi = spec.budget;
        if (sum.known &&
            DecideRelation(sum, spec.relation, budget) == Tri::kHolds) {
          outcome.status = InvariantStatus::kProven;
          break;
        }
        // Concrete: sum the real values.
        double total = 0;
        bool concrete_ok = true;
        std::vector<double> values;
        for (const SymbolRef& term : spec.terms) {
          std::optional<Json> v = concrete.Field(term.config, term.field);
          if (!v.has_value() || !v->is_number()) {
            concrete_ok = false;
            break;
          }
          values.push_back(v->as_double());
          total += v->as_double();
        }
        if (concrete_ok &&
            !RelationHoldsConcrete(total, spec.relation, spec.budget)) {
          outcome.status = InvariantStatus::kViolated;
          outcome.witness.predicate = StrFormat(
              "sum = %g, %g %s %g is false", total, total,
              std::string(InvariantRelationName(spec.relation)).c_str(),
              spec.budget);
          // An over-budget violation shrinks to the minimal subset of terms
          // that already exceeds the budget alone; other relations keep the
          // full valuation (dropping terms changes the sum).
          bool exceeds_le =
              spec.relation == InvariantRelation::kLe && total > spec.budget;
          bool exceeds_lt =
              spec.relation == InvariantRelation::kLt && total >= spec.budget;
          std::vector<size_t> kept(spec.terms.size());
          for (size_t i = 0; i < kept.size(); ++i) {
            kept[i] = i;
          }
          if (exceeds_le || exceeds_lt) {
            kept = ShrinkSumWitness(values, spec.budget, exceeds_lt,
                                    &outcome.witness.shrink_probes);
            // Re-validate the shrunk subset before reporting it.
            double shrunk_sum = 0;
            for (size_t i : kept) {
              shrunk_sum += values[i];
            }
            bool still_violates = exceeds_lt ? shrunk_sum >= spec.budget
                                             : shrunk_sum > spec.budget;
            if (!still_violates) {
              kept.resize(spec.terms.size());
              for (size_t i = 0; i < kept.size(); ++i) {
                kept[i] = i;
              }
            } else {
              outcome.witness.predicate += StrFormat(
                  " (%zu of %zu terms already exceed the budget)", kept.size(),
                  spec.terms.size());
            }
          }
          for (size_t i : kept) {
            outcome.witness.valuation.emplace_back(
                spec.terms[i].Describe(), StrFormat("%g", values[i]));
          }
          outcome.witness.validated = true;
          report.diagnostics.push_back(
              ViolationDiagnostic(spec, outcome.witness));
        } else if (concrete_ok) {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail =
              "abstract sum bounds do not prove the budget; concrete sum "
              "satisfies it at head";
        } else {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = "not concretely evaluable (non-numeric or absent "
                           "term)";
        }
        break;
      }

      case InvariantKind::kMembership: {
        const AbstractCases& cases = resolver.Resolve(spec.subject.config);
        if (!cases.resolved) {
          outcome.status = InvariantStatus::kUnresolved;
          outcome.detail = "unresolvable config: " + spec.subject.config;
          report.diagnostics.push_back(
              UnresolvedDiagnostic(spec, spec.subject.config));
          break;
        }
        bool all_member = true;
        for (const AbstractFieldMap& fields : cases.cases) {
          ++outcome.cases_checked;
          AbstractFieldFacts facts = FactsFor(fields, spec.subject);
          bool member = false;
          if (facts.constant.has_value() && !facts.maybe_absent) {
            for (const Json& candidate : spec.allowed) {
              if (ValueMatchesJson(*facts.constant, candidate)) {
                member = true;
                break;
              }
            }
          }
          if (!member) {
            all_member = false;
          }
        }
        if (all_member) {
          outcome.status = InvariantStatus::kProven;
          break;
        }
        std::optional<Json> v =
            concrete.Field(spec.subject.config, spec.subject.field);
        bool concrete_member = false;
        if (v.has_value()) {
          for (const Json& candidate : spec.allowed) {
            if (JsonScalarEqual(*v, candidate)) {
              concrete_member = true;
              break;
            }
          }
        }
        if (v.has_value() && !concrete_member) {
          outcome.status = InvariantStatus::kViolated;
          outcome.witness.valuation.emplace_back(spec.subject.Describe(),
                                                 RenderWitnessValue(*v));
          outcome.witness.predicate =
              RenderWitnessValue(*v) + " is not in the allowed set";
          outcome.witness.validated = true;
          report.diagnostics.push_back(
              ViolationDiagnostic(spec, outcome.witness));
        } else if (v.has_value()) {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = "membership not provable abstractly (value not a "
                           "pinned constant); concrete value is allowed";
        } else {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = "subject field absent from the concrete config";
        }
        break;
      }

      case InvariantKind::kReference: {
        const AbstractCases& cases = resolver.Resolve(spec.subject.config);
        if (!cases.resolved) {
          outcome.status = InvariantStatus::kUnresolved;
          outcome.detail = "unresolvable config: " + spec.subject.config;
          report.diagnostics.push_back(
              UnresolvedDiagnostic(spec, spec.subject.config));
          break;
        }
        // Proven iff every case pins the subject to a constant string whose
        // target concretely resolves (existence is context-independent, so
        // the concrete check is exact, not just a sample).
        bool all_exist = true;
        bool all_pinned = true;
        for (const AbstractFieldMap& fields : cases.cases) {
          ++outcome.cases_checked;
          AbstractFieldFacts facts = FactsFor(fields, spec.subject);
          if (!facts.constant.has_value() || !facts.constant->is_string() ||
              facts.maybe_absent) {
            all_pinned = false;
            continue;
          }
          if (!concrete.ConfigExists(facts.constant->as_string())) {
            all_exist = false;
          }
        }
        if (all_pinned && all_exist) {
          outcome.status = InvariantStatus::kProven;
          break;
        }
        std::optional<Json> v =
            concrete.Field(spec.subject.config, spec.subject.field);
        if (v.has_value() && v->is_string() &&
            !concrete.ConfigExists(v->as_string())) {
          outcome.status = InvariantStatus::kViolated;
          outcome.witness.valuation.emplace_back(spec.subject.Describe(),
                                                 RenderWitnessValue(*v));
          outcome.witness.predicate = "referenced config '" + v->as_string() +
                                      "' does not exist";
          outcome.witness.validated = true;
          report.diagnostics.push_back(
              ViolationDiagnostic(spec, outcome.witness));
        } else if (v.has_value() && v->is_string()) {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = "reference target not pinned abstractly; concrete "
                           "target exists at head";
        } else {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = "subject is not a concrete string";
        }
        break;
      }

      case InvariantKind::kGateImplies: {
        GateProject if_proj = LoadProject(reader_, spec.if_project);
        GateProject then_proj = LoadProject(reader_, spec.then_project);
        if (!if_proj.resolved || !then_proj.resolved) {
          outcome.status = InvariantStatus::kUnresolved;
          const std::string& missing =
              !if_proj.resolved ? spec.if_project : spec.then_project;
          outcome.detail = "unresolvable project: " + missing;
          report.diagnostics.push_back(UnresolvedDiagnostic(spec, missing));
          break;
        }
        if (SyntacticImplication(if_proj.json, then_proj.json)) {
          outcome.status = InvariantStatus::kProven;
          outcome.detail = "every positive if-rule conjunction subsumes a "
                           "positive then-rule";
          break;
        }
        // Case split on context fields: ask both projects' restraints for
        // their boundary probes and enumerate the (capped) cross product.
        // Any violating context found this way is concrete and real by
        // construction.
        std::vector<ContextAxis> axes =
            ProbeAxes({&if_proj.spec, &then_proj.spec});
        auto violates = [&](const std::vector<size_t>& choice) {
          UserContext user = ContextAt(axes, choice);
          return Eligible(if_proj.spec, user) && !Eligible(then_proj.spec, user);
        };
        size_t total = 1;
        for (const ContextAxis& axis : axes) {
          total *= axis.values.size();
          if (total > kMaxGateContexts) {
            total = kMaxGateContexts;
            break;
          }
        }
        std::vector<size_t> violating_choice;
        for (size_t index = 0; index < total; ++index) {
          std::vector<size_t> choice(axes.size(), 0);
          size_t rest = index;
          for (size_t i = 0; i < axes.size(); ++i) {
            choice[i] = rest % axes[i].values.size();
            rest /= axes[i].values.size();
          }
          ++outcome.cases_checked;
          if (violates(choice)) {
            violating_choice = std::move(choice);
            break;
          }
        }
        if (violating_choice.empty()) {
          outcome.status = InvariantStatus::kInJeopardy;
          outcome.detail = StrFormat(
              "no syntactic implication; no violating context among %zu "
              "mined candidates",
              outcome.cases_checked);
          break;
        }
        // Shrink the witness context with ddmin: reset every field the
        // violation does not need back to its default.
        std::vector<size_t> set_fields;
        for (size_t i = 0; i < violating_choice.size(); ++i) {
          if (violating_choice[i] != 0) {
            set_fields.push_back(i);
          }
        }
        auto kept_choice = [&](const std::vector<size_t>& kept) {
          std::vector<size_t> choice(axes.size(), 0);
          for (size_t k : kept) {
            choice[set_fields[k]] = violating_choice[set_fields[k]];
          }
          return choice;
        };
        std::vector<size_t> final_choice = kept_choice(DdminSubset(
            set_fields.size(),
            [&](const std::vector<size_t>& kept) {
              return violates(kept_choice(kept));
            },
            /*max_probes=*/128, &outcome.witness.shrink_probes));
        // Final concrete re-validation of the shrunk context.
        if (!violates(final_choice)) {
          final_choice = violating_choice;  // Shrink regressed; keep original.
        }
        outcome.status = InvariantStatus::kViolated;
        outcome.witness.context = RenderContext(axes, final_choice);
        if (outcome.witness.context.empty()) {
          // Every field shrank away: the all-default context already
          // witnesses the gap.
          outcome.witness.context.emplace_back("context", "<default>");
        }
        outcome.witness.predicate = "context is eligible under " +
                                    spec.if_project + " but not under " +
                                    spec.then_project;
        outcome.witness.validated = violates(final_choice);
        report.diagnostics.push_back(
            ViolationDiagnostic(spec, outcome.witness));
        break;
      }

      case InvariantKind::kGateContext: {
        GateProject proj = LoadProject(reader_, spec.project);
        if (!proj.resolved) {
          outcome.status = InvariantStatus::kUnresolved;
          outcome.detail = "unresolvable project: " + spec.project;
          report.diagnostics.push_back(
              UnresolvedDiagnostic(spec, spec.project));
          break;
        }
        std::set<std::string> allowed(spec.allowed_fields.begin(),
                                      spec.allowed_fields.end());
        // Exact static listing: which context fields do the project's
        // restraints consult?
        std::vector<std::pair<std::string, std::string>> offending;
        for (const RestraintFields& restraint :
             ProjectContextFields(proj.json)) {
          ++outcome.cases_checked;
          for (const std::string& field : *restraint.fields) {
            if (allowed.count(field) == 0) {
              offending.emplace_back(restraint.type, field);
            }
          }
        }
        if (offending.empty()) {
          outcome.status = InvariantStatus::kProven;
          break;
        }
        outcome.status = InvariantStatus::kViolated;
        // The witness is the config text itself: restraint type -> field it
        // consults. A differential context pair (flip a disallowed field,
        // eligibility flips) is attached when the probes produce one.
        std::set<std::string> seen;
        for (const auto& [type, field] : offending) {
          if (seen.insert(type + "/" + field).second) {
            outcome.witness.valuation.emplace_back(
                spec.project + ":restraint." + type, "consults '" + field + "'");
          }
        }
        outcome.witness.predicate =
            "project consults context field(s) outside the allowed set";
        std::vector<ContextAxis> axes = ProbeAxes({&proj.spec});
        // Try to demonstrate real dependence: two contexts differing only in
        // a disallowed field with different eligibility.
        for (size_t axis_idx = 0;
             axis_idx < axes.size() && outcome.witness.context.empty();
             ++axis_idx) {
          if (allowed.count(std::string(axes[axis_idx].field->name)) > 0) {
            continue;
          }
          std::vector<size_t> base(axes.size(), 0);
          std::optional<bool> first;
          for (size_t v = 0; v < axes[axis_idx].values.size(); ++v) {
            base[axis_idx] = v;
            bool eligible = Eligible(proj.spec, ContextAt(axes, base));
            ++outcome.cases_checked;
            if (!first.has_value()) {
              first = eligible;
            } else if (eligible != *first) {
              outcome.witness.context = RenderContext(axes, base);
              if (outcome.witness.context.empty()) {
                outcome.witness.context.emplace_back(axes[axis_idx].name,
                                                     "<default>");
              }
              break;
            }
          }
        }
        outcome.witness.validated = true;
        report.diagnostics.push_back(
            ViolationDiagnostic(spec, outcome.witness));
        break;
      }
    }

    switch (outcome.status) {
      case InvariantStatus::kProven:
        ++report.proven;
        break;
      case InvariantStatus::kViolated:
        ++report.violated;
        break;
      case InvariantStatus::kInJeopardy:
        ++report.in_jeopardy;
        break;
      case InvariantStatus::kUnresolved:
        ++report.unresolved;
        break;
    }
    report.outcomes.push_back(std::move(outcome));
  }

  SortDiagnostics(&report.diagnostics);
  return report;
}

}  // namespace configerator
