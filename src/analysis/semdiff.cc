#include "src/analysis/semdiff.h"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "src/analysis/store.h"
#include "src/gatekeeper/compile.h"
#include "src/json/json.h"
#include "src/lang/unit_cache.h"
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

// One version of one file, analyzed. An absent side reads as empty facts.
struct SideFacts {
  bool present = false;
  std::string content;
  std::shared_ptr<const ModuleSymbolSurface> surface =
      std::make_shared<const ModuleSymbolSurface>();
  std::shared_ptr<const AbsintResult> absint =
      std::make_shared<const AbsintResult>();

  // Present, parsed, and analyzed with every import resolved.
  bool sound() const {
    return present && surface->analyzable && absint->analyzed &&
           absint->slice_sound;
  }
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
    return "restraints{" +
           StrJoin({restraint_types.begin(), restraint_types.end()}, ",") + "}";
  }
};

LintDiagnostic MakeFinding(const char* rule_id, LintSeverity severity,
                           std::string file, int line, std::string message,
                           std::string suggestion) {
  LintDiagnostic d;
  d.rule_id = rule_id;
  d.severity = severity;
  d.file = std::move(file);
  d.line = line;
  d.message = std::move(message);
  d.suggestion = std::move(suggestion);
  return d;
}

GateSurface SurfaceOf(const Json& spec) {
  GateSurface surface;
  for (const RestraintFields& restraint : ProjectContextFields(spec)) {
    surface.restraint_types.insert(restraint.type);
    surface.context_fields.insert(restraint.fields->begin(),
                                  restraint.fields->end());
  }
  return surface;
}

}  // namespace

SemanticDiffer::SemanticDiffer(FileReader old_reader, FileReader new_reader)
    : old_reader_(std::move(old_reader)),
      new_reader_(std::move(new_reader)),
      owned_store_(std::make_unique<AnalysisStore>()),
      store_(owned_store_.get()) {}

SemanticDiffer::SemanticDiffer(FileReader old_reader, FileReader new_reader,
                               AnalysisStore& store)
    : old_reader_(std::move(old_reader)),
      new_reader_(std::move(new_reader)),
      store_(&store) {}

SemanticDiffReport SemanticDiffer::Classify(
    const std::vector<std::string>& touched_paths,
    const std::vector<std::string>& dependent_entries) {
  SemanticDiffReport report;
  if (!old_reader_ || !new_reader_) {
    report.sound = false;
    return report;
  }

  std::set<std::string> touched_set(touched_paths.begin(),
                                    touched_paths.end());
  std::set<std::string> gk_touched;
  // Every other write whose bytes changed, adds and deletes included: a raw
  // config, a compiled output, a schema, an invariant spec.
  std::set<std::string> raw_touched;
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

  // One version of `path`, analyzed through the store.
  auto load = [this](const FileReader& reader, const std::string& path) {
    SideFacts side;
    auto content = reader(path);
    if (!content.ok()) {
      return side;  // Added/deleted on this side.
    }
    side.present = true;
    side.content = std::move(*content);
    side.surface = store_->Surface(path, side.content);
    side.absint = store_->Absint(reader, path, side.content);
    return side;
  };

  // -- Analyze every root on both sides.
  std::map<std::string, FilePair> files;
  for (const std::string& path : roots) {
    FilePair pair;
    pair.touched = touched_set.count(path) > 0;
    pair.old_side = load(old_reader_, path);
    pair.new_side = load(new_reader_, path);
    for (const SideFacts* side : {&pair.old_side, &pair.new_side}) {
      if (side->present && !side->sound()) {
        pair.unsound = true;
        report.sound = false;
      }
    }
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
      auto changed = ChangedSymbols(*pair.old_side.surface,
                                    *pair.new_side.surface);
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
      for (const auto& [symbol, summary] : side->absint->symbol_summaries) {
        dirty_base.insert({path, symbol});
      }
    }
  }

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
  auto deps_dirty = [&](const std::map<std::string, std::set<std::string>>&
                            deps) { return !dirty_deps_of(deps).empty(); };
  // File-level reach: reads of a changed raw dep (schema, validator), of an
  // incomparable touched file, or a star import of a module whose surface
  // grew. `raw` is reported separately — it also voids precision-based
  // no-op certificates (schema defaults are invisible to the summaries).
  auto file_reach = [&](const AbsintResult& result, bool* any, bool* raw) {
    for (const auto& [dep, symbols] : *result.used_symbols) {
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
    file_reach(*pair.old_side.absint, &reach_any, &reach_raw);
    file_reach(*pair.new_side.absint, &reach_any, &reach_raw);
    bool all_dirty = incomparable.count(path) > 0 ||
                     pair.old_side.present != pair.new_side.present;

    std::map<std::string, std::vector<int>> attributed;
    if (pair.touched && pair.old_side.present && pair.new_side.present) {
      attributed = AttributeDiffLines(
          *pair.old_side.surface, *pair.new_side.surface,
          DiffLines(pair.old_side.content, pair.new_side.content));
    }

    // Top-level symbols (union of both sides).
    std::set<std::string> symbols;
    for (const auto* side : {&pair.old_side, &pair.new_side}) {
      for (const auto& [symbol, summary] : side->absint->symbol_summaries) {
        symbols.insert(symbol);
      }
    }
    for (const std::string& symbol : symbols) {
      const auto& old_map = pair.old_side.absint->symbol_summaries;
      const auto& new_map = pair.new_side.absint->symbol_summaries;
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
        std::vector<std::string> briefs;
        for (const auto& [digest, brief] : brief_by_digest) {
          briefs.push_back(brief);
        }
        return "one of {" + StrJoin(briefs, " | ") + "}";
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
        merge_exports(*pair.old_side.absint);
    std::map<std::string, MergedExport> new_exports =
        merge_exports(*pair.new_side.absint);
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
            std::vector<std::string> guards;
            for (const auto& [module_path, symbol] : dirty_deps) {
              guards.push_back(module_path + ":" + symbol);
            }
            impact.detail = "guard symbols changed: " + StrJoin(guards, ", ");
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
    auto parse = [&path](const FileReader& reader) -> std::optional<Json> {
      auto content = reader(path);
      if (!content.ok()) {
        return std::nullopt;
      }
      auto parsed = Json::Parse(*content);
      return parsed.ok() ? std::optional<Json>(std::move(*parsed))
                         : std::nullopt;
    };
    std::optional<Json> old_json = parse(old_reader_);
    std::optional<Json> new_json = parse(new_reader_);
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
      GateSurface old_surface = SurfaceOf(*old_json);
      GateSurface new_surface = SurfaceOf(*new_json);
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

  // -- Graph findings over the new side's closure: the roots plus every CSL
  // file their new-side runs read. A closure file that is absent or not
  // fully analyzed makes the findings incomplete, so the report is unsound.
  std::map<std::string, const SideFacts*> closure;
  std::map<std::string, SideFacts> beyond_roots;
  std::vector<std::string> pending = roots;
  while (!pending.empty()) {
    std::string path = std::move(pending.back());
    pending.pop_back();
    if (closure.count(path) > 0) {
      continue;
    }
    auto root = files.find(path);
    const SideFacts* side =
        root != files.end() ? &root->second.new_side
                            : &(beyond_roots[path] = load(new_reader_, path));
    closure.emplace(path, side);
    if (!side->sound()) {
      report.sound = false;
    }
    for (const auto& [dep, symbols] : *side->absint->used_symbols) {
      if (IsCslPath(dep) && closure.count(dep) == 0) {
        pending.push_back(dep);
      }
    }
  }

  // G010 (shadowed import): a module-level import, one inside an
  // if/for/while block included, rebinding a name that an earlier import
  // it can follow bound to a *different* definition. The classic hazard is
  // a star import growing a new symbol, or re-exporting one, that silently
  // shadows a specific earlier import (or vice versa). Names compare by
  // their defining module, so the same definition re-exported is no
  // conflict. The two arms of an `if` never both run: each starts from the
  // bindings before the `if`, and after it a name holds what either arm
  // left it. Loop bodies read as straight-line code. Schema imports bind
  // into a separate env, and a dynamic import made the analysis unsound
  // already.
  // name -> the (defining module, importing path) pairs it may hold.
  using Held =
      std::map<std::string, std::set<std::pair<std::string, std::string>>>;
  auto join = [](const Held& from, Held* into) {
    for (const auto& [name, pairs] : from) {
      (*into)[name].insert(pairs.begin(), pairs.end());
    }
  };
  for (const auto& [path, side] : closure) {
    Held held;
    // The `if`s around the last import, outermost first: the arm it sat in,
    // the bindings as the `if` began, and those its left arms ended with.
    std::vector<std::tuple<int, Held, Held>> open;
    for (const ModuleImport& import : side->surface->imports) {
      const std::vector<int>& arms = import.arms;
      while (!open.empty()) {
        auto& [arm, before, after] = open.back();
        int next = open.size() <= arms.size() ? arms[open.size() - 1] : -1;
        if (arm == next) {
          break;  // Still in this arm; arm numbers are unique.
        }
        join(held, &after);
        if (arm % 2 == 0 && arm + 1 == next) {
          held = before;  // On to the else arm.
          ++arm;
          break;
        }
        if (arm % 2 == 0) {
          join(before, &after);  // The else arm imports nothing.
        }
        held = std::move(after);
        open.pop_back();
      }
      while (open.size() < arms.size()) {
        // Entered at its else arm, an `if` already holds what its body left.
        int arm = arms[open.size()];
        open.emplace_back(arm, held, arm % 2 == 1 ? held : Held());
      }
      ImportBinding binding =
          store_->Import(new_reader_, import.path, import.filter);
      for (const auto& [name, bound] : binding.names) {
        std::set<std::pair<std::string, std::string>>& pairs = held[name];
        for (const auto& [module, importer] : pairs) {
          if (module != bound.module) {
            report.findings.push_back(MakeFinding(
                "G010", LintSeverity::kError, path, import.line,
                "import from '" + import.path + "' rebinds '" + name +
                    "' already bound by the import of '" + importer + "'",
                "rename the symbol or drop one of the imports"));
            break;
          }
        }
        pairs = {{bound.module, import.path}};
      }
    }
  }

  // G007 (dead on arrival): a symbol this commit adds to a touched module
  // that no other symbol of the module and no file of the new closure
  // reads. A consumer of a brand-new symbol is in the diff or star-imports
  // the module (the "*" of ChangedSymbols puts star importers in the
  // closure), so the closure holds every consumer; an incomplete closure
  // suppresses the rule.
  if (report.sound) {
    for (const auto& [path, pair] : files) {
      if (!pair.touched || !path.ends_with(".cinc")) {
        continue;
      }
      const ModuleSymbolSurface& surface = *pair.new_side.surface;
      for (const auto& [symbol, fingerprint] : surface.fingerprints) {
        if (pair.old_side.surface->fingerprints.count(symbol) > 0) {
          continue;
        }
        bool read = false;
        for (const auto& [name, read_names] : surface.reads) {
          read = read || (name != symbol && read_names.count(symbol) > 0);
        }
        for (const auto& [file, side] : closure) {
          if (file == path) {
            continue;  // The module's own reads are its surface's.
          }
          auto it = side->absint->used_symbols->find(path);
          read = read || (it != side->absint->used_symbols->end() &&
                          it->second.count(symbol) > 0);
        }
        if (read) {
          continue;
        }
        report.findings.push_back(MakeFinding(
            "G007", LintSeverity::kWarning, path,
            surface.def_lines.at(symbol).front().first,
            "module symbol '" + symbol +
                "' is added by this commit, but nothing reads it",
            "delete it or import it where it is needed"));
      }
    }
  }

  // G008: branches the commit *newly* decides. A site decided the same way
  // on both sides was already dead — flagging it on every commit that
  // touches the file would be noise; the semantic diff reports the
  // transition.
  std::set<std::tuple<std::string, int, bool>> old_decided;
  std::set<std::tuple<std::string, int, bool>> new_decided;
  for (const auto& [path, pair] : files) {
    for (const DecidedBranch& branch : pair.old_side.absint->decided_branches) {
      old_decided.insert({branch.file, branch.line, branch.value});
    }
    for (const DecidedBranch& branch : pair.new_side.absint->decided_branches) {
      new_decided.insert({branch.file, branch.line, branch.value});
    }
  }
  for (const auto& [file, line, value] : new_decided) {
    if (old_decided.count({file, line, value}) > 0) {
      continue;
    }
    report.findings.push_back(MakeFinding(
        "G008", LintSeverity::kWarning, file, line,
        StrFormat("branch condition is now statically %s under every "
                  "schema-valid context; one arm is unreachable",
                  value ? "true" : "false"),
        "fold the branch or revisit the constants deciding it"));
  }
  SortDiagnostics(&report.findings);

  // The certificate covers the classified writes (CSL sources and
  // Gatekeeper projects) and byte-identical others. Any other changed write
  // withholds it: its readers are code semdiff does not model.
  report.provably_noop = report.sound && raw_touched.empty();
  for (const SymbolImpact& impact : report.impacts) {
    if (impact.kind != ImpactKind::kNoOp) {
      report.provably_noop = false;
      break;
    }
  }
  return report;
}

}  // namespace configerator
