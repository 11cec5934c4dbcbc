#include "src/analysis/semdiff.h"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "src/gatekeeper/compile.h"
#include "src/json/json.h"
#include "src/util/strings.h"

namespace configerator {

std::string_view ImpactKindName(ImpactKind kind) {
  switch (kind) {
    case ImpactKind::kNoOp:
      return "no-op";
    case ImpactKind::kValueDelta:
      return "value-delta";
    case ImpactKind::kControlShift:
      return "control-shift";
    case ImpactKind::kTypeChange:
      return "type-change";
  }
  return "unknown";
}

std::string SymbolImpact::Describe() const {
  std::string out = file + ":" + symbol + " ";
  out += ImpactKindName(kind);
  if (kind != ImpactKind::kNoOp && (!old_value.empty() || !new_value.empty())) {
    out += " [";
    out += old_value.empty() ? "<absent>" : old_value;
    out += " -> ";
    out += new_value.empty() ? "<absent>" : new_value;
    out += "]";
  }
  if (!detail.empty()) {
    out += " (" + detail + ")";
  }
  return out;
}

size_t SemanticDiffReport::CountKind(ImpactKind kind) const {
  size_t count = 0;
  for (const SymbolImpact& impact : impacts) {
    if (impact.kind == kind) {
      ++count;
    }
  }
  return count;
}

const SymbolImpact* SemanticDiffReport::Find(const std::string& file,
                                             const std::string& symbol) const {
  for (const SymbolImpact& impact : impacts) {
    if (impact.file == file && impact.symbol == symbol) {
      return &impact;
    }
  }
  return nullptr;
}

std::string SemanticDiffReport::Summary() const {
  std::string out = StrFormat(
      "semdiff: %zu no-op, %zu value-delta, %zu control-shift, %zu "
      "type-change",
      CountKind(ImpactKind::kNoOp), CountKind(ImpactKind::kValueDelta),
      CountKind(ImpactKind::kControlShift), CountKind(ImpactKind::kTypeChange));
  if (provably_noop) {
    out += "; provably no-op";
  }
  if (!sound) {
    out += "; UNSOUND (no-op certificates withheld)";
  }
  if (!findings.empty()) {
    out += StrFormat("; %zu graph finding(s)", findings.size());
  }
  return out;
}

std::map<std::string, std::vector<int>> AttributeDiffLines(
    const ModuleSymbolSurface& old_surface,
    const ModuleSymbolSurface& new_surface, const LineDiff& diff) {
  std::map<std::string, std::set<int>> hits;
  auto attribute = [&hits](const ModuleSymbolSurface& surface, int line) {
    for (const auto& [symbol, ranges] : surface.def_lines) {
      for (const auto& [first, last] : ranges) {
        if (line >= first && line <= last) {
          hits[symbol].insert(line);
          break;
        }
      }
    }
  };
  // A changed line that is blank or comment-only cannot alter any symbol's
  // value even when it falls inside a symbol's def range (trailing comments
  // share the line range of multi-line defs) — attributing it would flag the
  // nearest symbol as touched and defeat no-op detection.
  auto semantically_inert = [](const std::string& text) {
    size_t i = text.find_first_not_of(" \t\r");
    return i == std::string::npos || text[i] == '#';
  };
  for (const DiffOp& op : diff.ops) {
    if (semantically_inert(op.text)) {
      continue;
    }
    if (op.kind == DiffOp::Kind::kAdd) {
      attribute(new_surface, op.new_line);
    } else if (op.kind == DiffOp::Kind::kDelete) {
      attribute(old_surface, op.old_line);
    }
  }
  std::map<std::string, std::vector<int>> out;
  for (const auto& [symbol, lines] : hits) {
    out[symbol].assign(lines.begin(), lines.end());
  }
  return out;
}

namespace {

bool IsCslPath(const std::string& path) {
  return path.ends_with(".cconf") || path.ends_with(".cinc");
}

// One version of one file, analyzed.
struct SideFacts {
  bool present = false;
  std::string content;
  ModuleSymbolSurface surface;
  AbsintResult absint;
};

struct FilePair {
  SideFacts old_side;
  SideFacts new_side;
  bool touched = false;
  // A version present but unparseable / with an unsound slice: no no-op
  // certificate may be issued for this file's symbols.
  bool unsound = false;
};

using SymbolKey = std::pair<std::string, std::string>;

// Restraint-type multiset and context-field set of a Gatekeeper spec — the
// control surface whose change means control-shift.
struct GateSurface {
  std::multiset<std::string> restraint_types;
  std::set<std::string> context_fields;

  bool operator==(const GateSurface& other) const = default;

  std::string Describe() const {
    std::string out = "restraints{";
    bool first = true;
    for (const std::string& type : restraint_types) {
      if (!first) {
        out += ",";
      }
      first = false;
      out += type;
    }
    out += "}";
    return out;
  }
};

GateSurface ExtractGateSurface(const Json& spec,
                               const RestraintRegistry& registry) {
  GateSurface surface;
  const Json* rules = spec.Get("rules");
  if (rules == nullptr || !rules->is_array()) {
    return surface;
  }
  for (const Json& rule : rules->as_array()) {
    const Json* restraints = rule.Get("restraints");
    if (restraints == nullptr || !restraints->is_array()) {
      continue;
    }
    for (const Json& restraint : restraints->as_array()) {
      const Json* type = restraint.Get("type");
      if (type == nullptr || !type->is_string()) {
        continue;
      }
      surface.restraint_types.insert(type->as_string());
      for (const std::string& field : registry.ContextFields(type->as_string())) {
        surface.context_fields.insert(field);
      }
    }
  }
  return surface;
}

}  // namespace

SemanticDiffer::SemanticDiffer(FileReader old_reader, FileReader new_reader,
                               const RestraintRegistry* registry)
    : old_reader_(std::move(old_reader)),
      new_reader_(std::move(new_reader)),
      registry_(registry) {}

SemanticDiffReport SemanticDiffer::Classify(
    const std::vector<std::string>& touched_paths,
    const std::vector<std::string>& dependent_entries) const {
  SemanticDiffReport report;
  if (!old_reader_ || !new_reader_) {
    report.sound = false;
    return report;
  }

  // Separate caches per side: the same path holds different content in the
  // old and new trees, and a cache entry is (path, content)-keyed.
  AstCache old_cache;
  AstCache new_cache;
  AbstractInterpreter old_absint(old_reader_);
  old_absint.set_ast_cache(&old_cache);
  AbstractInterpreter new_absint(new_reader_);
  new_absint.set_ast_cache(&new_cache);

  std::set<std::string> touched_set(touched_paths.begin(),
                                    touched_paths.end());
  std::set<std::string> gk_touched;
  std::set<std::string> raw_touched;  // Non-CSL deps whose bytes changed.
  std::vector<std::string> roots;
  std::set<std::string> root_set;
  for (const std::string& path : touched_paths) {
    if (IsCslPath(path)) {
      if (root_set.insert(path).second) {
        roots.push_back(path);
      }
    } else if (GatekeeperProjectAt(path).has_value()) {
      gk_touched.insert(path);
    } else {
      auto old_content = old_reader_(path);
      auto new_content = new_reader_(path);
      if (old_content.ok() != new_content.ok() ||
          (old_content.ok() && *old_content != *new_content)) {
        raw_touched.insert(path);
      }
    }
  }
  for (const std::string& entry : dependent_entries) {
    if (IsCslPath(entry) && root_set.insert(entry).second) {
      roots.push_back(entry);
    }
  }

  // -- Analyze every root on both sides.
  std::map<std::string, FilePair> files;
  for (const std::string& path : roots) {
    FilePair pair;
    pair.touched = touched_set.count(path) > 0;
    auto load = [&](const FileReader& reader, AstCache* cache,
                    const AbstractInterpreter& interp, SideFacts* side) {
      auto content = reader(path);
      if (!content.ok()) {
        return;  // Added/deleted on this side.
      }
      side->present = true;
      side->content = *content;
      side->surface = ComputeSymbolSurface(path, side->content, cache);
      side->absint = interp.Analyze(path, side->content);
      if (!side->surface.analyzable || !side->absint.analyzed ||
          !side->absint.slice_sound) {
        pair.unsound = true;
        report.sound = false;
      }
    };
    load(old_reader_, &old_cache, old_absint, &pair.old_side);
    load(new_reader_, &new_cache, new_absint, &pair.new_side);
    files.emplace(path, std::move(pair));
  }

  // -- Seed dirtiness from the touched files' symbol-surface diffs.
  std::set<SymbolKey> dirty_base;
  std::set<std::string> star_grown;    // Touched modules that gained symbols.
  std::set<std::string> incomparable;  // Touched CSL without a symbol diff.
  for (const auto& [path, pair] : files) {
    if (!pair.touched) {
      continue;
    }
    if (pair.old_side.present && pair.new_side.present) {
      auto changed = ChangedSymbols(pair.old_side.surface,
                                    pair.new_side.surface);
      if (!changed.has_value()) {
        incomparable.insert(path);
        continue;
      }
      for (const std::string& symbol : *changed) {
        if (symbol == "*") {
          star_grown.insert(path);
        } else {
          dirty_base.insert({path, symbol});
        }
      }
    } else {
      incomparable.insert(path);  // Added or deleted file.
    }
  }
  for (const auto& [path, pair] : files) {
    if (incomparable.count(path) == 0) {
      continue;
    }
    // Every symbol either version defines is potentially affected.
    for (const auto* side : {&pair.old_side, &pair.new_side}) {
      for (const auto& [symbol, summary] : side->absint.symbol_summaries) {
        dirty_base.insert({path, symbol});
      }
    }
  }

  auto deps_dirty = [&dirty_base](
                        const std::map<std::string, std::set<std::string>>&
                            deps) {
    for (const auto& [module_path, symbols] : deps) {
      for (const std::string& symbol : symbols) {
        if (dirty_base.count({module_path, symbol}) > 0) {
          return true;
        }
      }
    }
    return false;
  };
  // Names of dirty dependencies, for control-shift attribution.
  auto dirty_deps_of = [&dirty_base](
                           const std::map<std::string, std::set<std::string>>&
                               deps) {
    std::set<SymbolKey> out;
    for (const auto& [module_path, symbols] : deps) {
      for (const std::string& symbol : symbols) {
        if (dirty_base.count({module_path, symbol}) > 0) {
          out.insert({module_path, symbol});
        }
      }
    }
    return out;
  };
  // File-level reach: reads of a changed raw dep (schema, validator), of an
  // incomparable touched file, or a star import of a module whose surface
  // grew. `raw` is reported separately — it also voids precision-based
  // no-op certificates (schema defaults are invisible to the summaries).
  auto file_reach = [&](const AbsintResult& result, bool* any, bool* raw) {
    for (const auto& [dep, symbols] : result.used_symbols) {
      if (raw_touched.count(dep) > 0) {
        *any = true;
        *raw = true;
      }
      if (incomparable.count(dep) > 0 ||
          (star_grown.count(dep) > 0 && symbols.count("*") > 0)) {
        *any = true;
      }
    }
  };

  // -- Classify CSL symbols and exports.
  for (const auto& [path, pair] : files) {
    bool reach_any = false;
    bool reach_raw = false;
    file_reach(pair.old_side.absint, &reach_any, &reach_raw);
    file_reach(pair.new_side.absint, &reach_any, &reach_raw);
    bool all_dirty = incomparable.count(path) > 0 ||
                     pair.old_side.present != pair.new_side.present;

    std::map<std::string, std::vector<int>> attributed;
    if (pair.touched && pair.old_side.present && pair.new_side.present) {
      attributed = AttributeDiffLines(
          pair.old_side.surface, pair.new_side.surface,
          DiffLines(pair.old_side.content, pair.new_side.content));
    }

    // Top-level symbols (union of both sides).
    std::set<std::string> symbols;
    for (const auto* side : {&pair.old_side, &pair.new_side}) {
      for (const auto& [symbol, summary] : side->absint.symbol_summaries) {
        symbols.insert(symbol);
      }
    }
    for (const std::string& symbol : symbols) {
      const auto& old_map = pair.old_side.absint.symbol_summaries;
      const auto& new_map = pair.new_side.absint.symbol_summaries;
      auto old_it = old_map.find(symbol);
      auto new_it = new_map.find(symbol);
      const SymbolSummary* old_sum =
          old_it == old_map.end() ? nullptr : &old_it->second;
      const SymbolSummary* new_sum =
          new_it == new_map.end() ? nullptr : &new_it->second;
      bool dirty = all_dirty || reach_any ||
                   dirty_base.count({path, symbol}) > 0 ||
                   (old_sum != nullptr && deps_dirty(old_sum->deps)) ||
                   (new_sum != nullptr && deps_dirty(new_sum->deps));
      if (!pair.touched && !dirty) {
        continue;  // Untouched dependents only report what the diff moved.
      }
      SymbolImpact impact;
      impact.file = path;
      impact.symbol = symbol;
      auto lines = attributed.find(symbol);
      if (lines != attributed.end()) {
        impact.lines = lines->second;
      }
      if (old_sum == nullptr) {
        impact.kind = ImpactKind::kTypeChange;
        impact.new_value = new_sum->brief;
        impact.detail = "symbol added";
      } else if (new_sum == nullptr) {
        impact.kind = ImpactKind::kTypeChange;
        impact.old_value = old_sum->brief;
        impact.detail = "symbol removed";
      } else {
        impact.old_value = old_sum->brief;
        impact.new_value = new_sum->brief;
        if (!dirty) {
          impact.kind = ImpactKind::kNoOp;
          impact.detail = "fingerprint and dependencies unchanged";
        } else if (old_sum->kinds != new_sum->kinds ||
                   old_sum->any != new_sum->any ||
                   old_sum->type_name != new_sum->type_name) {
          impact.kind = ImpactKind::kTypeChange;
          impact.detail = "abstract kind or schema tag changed";
        } else if (pair.unsound) {
          impact.kind = ImpactKind::kValueDelta;
          impact.detail = "analysis incomplete; value not provably identical";
        } else if (reach_raw) {
          impact.kind = ImpactKind::kValueDelta;
          impact.detail =
              "file-level dependency changed; value not provably identical";
        } else if (old_sum->precise && new_sum->precise &&
                   old_sum->digest == new_sum->digest) {
          impact.kind = ImpactKind::kNoOp;
          impact.detail = "identical precise abstract value";
        } else {
          impact.kind = ImpactKind::kValueDelta;
          impact.detail = old_sum->digest == new_sum->digest
                              ? "abstract facts unchanged but not precise"
                              : "abstract value changed";
        }
      }
      report.impacts.push_back(std::move(impact));
    }

    // Entry exports, matched by output path. An output path can carry
    // SEVERAL slices (one export_if_last per branch arm): merge them —
    // union deps and guard sets, and issue a precise-value certificate only
    // when every slice on both sides pins the *same* concrete value.
    // Keying by "last slice" instead would let a guard flip masquerade as a
    // no-op whenever the last-recorded arm happens to be byte-identical.
    struct MergedExport {
      std::map<std::string, std::set<std::string>> deps;
      std::map<std::string, std::set<std::string>> control;
      std::set<std::string> type_names;
      std::set<std::string> digests;
      bool precise = true;
      std::map<std::string, std::string> brief_by_digest;  // For display.

      // Honest display value: a branch-dependent export renders as the set
      // of its arms' values, not whichever arm happened to be recorded last.
      std::string Brief() const {
        if (brief_by_digest.size() == 1) {
          return brief_by_digest.begin()->second;
        }
        std::string out = "one of {";
        bool first = true;
        for (const auto& [digest, brief] : brief_by_digest) {
          if (!first) {
            out += " | ";
          }
          first = false;
          out += brief;
        }
        out += "}";
        return out;
      }
    };
    auto merge_exports = [](const AbsintResult& result) {
      std::map<std::string, MergedExport> merged;
      for (const ExportSlice& slice : result.exports) {
        MergedExport& m = merged[slice.path];
        for (const auto& [module_path, symbols] : slice.symbols_by_module) {
          m.deps[module_path].insert(symbols.begin(), symbols.end());
        }
        for (const auto& [module_path, symbols] : slice.control_by_module) {
          m.control[module_path].insert(symbols.begin(), symbols.end());
        }
        if (!slice.type_name.empty()) {
          m.type_names.insert(slice.type_name);
        }
        m.digests.insert(slice.value_digest);
        m.precise = m.precise && slice.value_precise;
        m.brief_by_digest[slice.value_digest] = slice.value_brief;
      }
      return merged;
    };
    std::map<std::string, MergedExport> old_exports =
        merge_exports(pair.old_side.absint);
    std::map<std::string, MergedExport> new_exports =
        merge_exports(pair.new_side.absint);
    std::set<std::string> export_paths;
    for (const auto& [out_path, merged] : old_exports) {
      export_paths.insert(out_path);
    }
    for (const auto& [out_path, merged] : new_exports) {
      export_paths.insert(out_path);
    }
    for (const std::string& out_path : export_paths) {
      auto old_it = old_exports.find(out_path);
      auto new_it = new_exports.find(out_path);
      const MergedExport* old_exp =
          old_it == old_exports.end() ? nullptr : &old_it->second;
      const MergedExport* new_exp =
          new_it == new_exports.end() ? nullptr : &new_it->second;
      bool dirty = all_dirty || reach_any ||
                   (old_exp != nullptr && deps_dirty(old_exp->deps)) ||
                   (new_exp != nullptr && deps_dirty(new_exp->deps));
      SymbolImpact impact;
      impact.file = path;
      impact.symbol = out_path;
      if (old_exp == nullptr) {
        impact.kind = ImpactKind::kTypeChange;
        impact.new_value = new_exp->Brief();
        impact.detail = "export added";
      } else if (new_exp == nullptr) {
        impact.kind = ImpactKind::kTypeChange;
        impact.old_value = old_exp->Brief();
        impact.detail = "export removed";
      } else {
        impact.old_value = old_exp->Brief();
        impact.new_value = new_exp->Brief();
        if (!dirty) {
          impact.kind = ImpactKind::kNoOp;
          impact.detail = "dependencies unchanged";
        } else if (old_exp->type_names != new_exp->type_names) {
          impact.kind = ImpactKind::kTypeChange;
          impact.detail = "exported schema type changed";
        } else if (!pair.unsound && !reach_raw && old_exp->precise &&
                   new_exp->precise && old_exp->digests.size() == 1 &&
                   old_exp->digests == new_exp->digests) {
          impact.kind = ImpactKind::kNoOp;
          impact.detail = "identical precise exported value";
        } else if (old_exp->control != new_exp->control) {
          impact.kind = ImpactKind::kControlShift;
          impact.detail = "the export's guard set changed";
        } else {
          // Dirtiness that arrived exclusively through guard symbols is a
          // control shift: which branch exports changed, not the values in
          // the branches.
          std::set<SymbolKey> dirty_deps = dirty_deps_of(old_exp->deps);
          for (const SymbolKey& key : dirty_deps_of(new_exp->deps)) {
            dirty_deps.insert(key);
          }
          bool all_control = !dirty_deps.empty();
          for (const SymbolKey& key : dirty_deps) {
            bool in_control = false;
            for (const auto* exp : {old_exp, new_exp}) {
              auto it = exp->control.find(key.first);
              if (it != exp->control.end() &&
                  it->second.count(key.second) > 0) {
                in_control = true;
                break;
              }
            }
            if (!in_control) {
              all_control = false;
              break;
            }
          }
          if (all_control) {
            impact.kind = ImpactKind::kControlShift;
            std::string guards;
            for (const SymbolKey& key : dirty_deps) {
              if (!guards.empty()) {
                guards += ", ";
              }
              guards += key.first + ":" + key.second;
            }
            impact.detail = "guard symbols changed: " + guards;
          } else {
            impact.kind = ImpactKind::kValueDelta;
            impact.detail = pair.unsound
                                ? "analysis incomplete"
                                : "exported abstract value changed";
          }
        }
      }
      report.impacts.push_back(std::move(impact));
    }
  }

  // -- Gatekeeper specs: the control surface IS the semantics.
  for (const std::string& path : gk_touched) {
    auto old_content = old_reader_(path);
    auto new_content = new_reader_(path);
    std::optional<Json> old_json;
    std::optional<Json> new_json;
    if (old_content.ok()) {
      auto parsed = Json::Parse(*old_content);
      if (parsed.ok()) {
        old_json = std::move(*parsed);
      }
    }
    if (new_content.ok()) {
      auto parsed = Json::Parse(*new_content);
      if (parsed.ok()) {
        new_json = std::move(*parsed);
      }
    }
    SymbolImpact impact;
    impact.file = path;
    auto project_name = [&path](const std::optional<Json>& json) {
      if (!json.has_value()) {
        return path;
      }
      const Json* name = json->Get("project");
      return name != nullptr && name->is_string() ? name->as_string() : path;
    };
    impact.symbol = project_name(new_json.has_value() ? new_json : old_json);
    if (!old_json.has_value() && !new_json.has_value()) {
      continue;  // Raw validators report unparseable specs.
    }
    if (!old_json.has_value() || !new_json.has_value()) {
      impact.kind = ImpactKind::kTypeChange;
      impact.detail = !old_json.has_value() ? "project added or was malformed"
                                            : "project removed or malformed";
    } else if (*old_json == *new_json) {
      impact.kind = ImpactKind::kNoOp;
      impact.detail = "spec unchanged";
    } else {
      GateSurface old_surface = ExtractGateSurface(*old_json, *registry_);
      GateSurface new_surface = ExtractGateSurface(*new_json, *registry_);
      if (!(old_surface == new_surface)) {
        impact.kind = ImpactKind::kControlShift;
        impact.old_value = old_surface.Describe();
        impact.new_value = new_surface.Describe();
        impact.detail =
            "project consults different restraint types or context fields";
      } else {
        impact.kind = ImpactKind::kValueDelta;
        impact.detail = "rule parameters or sampling probabilities changed";
      }
    }
    report.impacts.push_back(std::move(impact));
  }

  std::sort(report.impacts.begin(), report.impacts.end(),
            [](const SymbolImpact& a, const SymbolImpact& b) {
              return std::tie(a.file, a.symbol) < std::tie(b.file, b.symbol);
            });

  // -- Graph findings over the NEW closure (G007, G009, G010)...
  std::vector<std::string> graph_paths = roots;
  graph_paths.insert(graph_paths.end(), gk_touched.begin(), gk_touched.end());
  ProvenanceGraph graph =
      ProvenanceGraph::Build(new_reader_, graph_paths, *registry_, &new_cache);
  report.findings = graph.findings();
  if (!graph.sound()) {
    report.sound = false;
  }

  // ...plus G008: branches the commit *newly* decides. A site decided the
  // same way on both sides was already dead — flagging it on every commit
  // that touches the file would be noise; the semantic diff reports the
  // transition.
  std::set<std::tuple<std::string, int, bool>> old_decided;
  std::set<std::tuple<std::string, int, bool>> new_decided;
  for (const auto& [path, pair] : files) {
    for (const DecidedBranch& branch : pair.old_side.absint.decided_branches) {
      old_decided.insert({branch.file, branch.line, branch.value});
    }
    for (const DecidedBranch& branch : pair.new_side.absint.decided_branches) {
      new_decided.insert({branch.file, branch.line, branch.value});
    }
  }
  for (const auto& [file, line, value] : new_decided) {
    if (old_decided.count({file, line, value}) > 0) {
      continue;
    }
    LintDiagnostic d;
    d.rule_id = "G008";
    d.severity = LintSeverity::kWarning;
    d.file = file;
    d.line = line;
    d.message = StrFormat(
        "branch condition is now statically %s under every schema-valid "
        "context; one arm is unreachable",
        value ? "true" : "false");
    d.suggestion = "fold the branch or revisit the constants deciding it";
    report.findings.push_back(std::move(d));
  }
  SortDiagnostics(&report.findings);

  report.provably_noop = report.sound;
  for (const SymbolImpact& impact : report.impacts) {
    if (impact.kind != ImpactKind::kNoOp) {
      report.provably_noop = false;
      break;
    }
  }
  return report;
}

}  // namespace configerator
