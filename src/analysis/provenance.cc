#include "src/analysis/provenance.h"

#include <algorithm>
#include <deque>

#include "src/analysis/store.h"
#include "src/gatekeeper/compile.h"
#include "src/json/json.h"
#include "src/lang/ast.h"
#include "src/lang/import_resolver.h"

namespace configerator {

namespace {

bool IsCslPath(const std::string& path) {
  return path.ends_with(".cconf") || path.ends_with(".cinc");
}

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

}  // namespace

ProvenanceGraph ProvenanceGraph::Build(const FileReader& reader,
                                       const std::vector<std::string>& paths,
                                       const RestraintRegistry& registry,
                                       AnalysisStore* store) {
  ProvenanceGraph graph;
  CompiledUnitCache private_units;  // Without a store: a private one.
  AnalysisStore private_store(&private_units);
  if (store == nullptr) {
    store = &private_store;
  }

  auto known_type = [&registry](const std::string& type) {
    for (const std::string& name : registry.TypeNames()) {
      if (name == type) {
        return true;
      }
    }
    return false;
  };

  // -- Discover the CSL closure: roots plus everything their abstract runs
  // read (used_symbols keys every file touched, transitively).
  std::set<std::string> csl_files;
  std::set<std::string> gk_files;
  std::deque<std::string> pending;
  for (const std::string& path : paths) {
    if (IsCslPath(path) && csl_files.insert(path).second) {
      pending.push_back(path);
    } else if (GatekeeperProjectAt(path).has_value()) {
      gk_files.insert(path);
    }
  }

  struct FileFacts {
    std::string content;
    std::shared_ptr<const ModuleSymbolSurface> surface;
    std::shared_ptr<const AbsintResult> absint;
  };
  std::map<std::string, FileFacts> facts;

  while (!pending.empty()) {
    std::string path = std::move(pending.front());
    pending.pop_front();
    if (!reader) {
      graph.sound_ = false;
      break;
    }
    auto content = reader(path);
    if (!content.ok()) {
      graph.sound_ = false;
      continue;
    }
    FileFacts f;
    f.content = *content;
    f.surface = AnalysisStore::Surface(store, path, f.content);
    f.absint = AnalysisStore::Absint(store, reader, path, f.content);
    if (!f.surface->analyzable || !f.absint->analyzed ||
        !f.absint->slice_sound) {
      graph.sound_ = false;
    }
    for (const auto& [dep_path, symbols] : f.absint->used_symbols) {
      if (IsCslPath(dep_path) && csl_files.insert(dep_path).second) {
        pending.push_back(dep_path);
      }
    }
    facts.emplace(path, std::move(f));
  }

  // -- CSL nodes: one per top-level symbol, one per entry export.
  // `consumed` collects every (module, symbol) some file's run actually
  // read — the graph-wide fan-in that decides G007.
  std::set<std::pair<std::string, std::string>> consumed;
  for (const auto& [path, f] : facts) {
    for (const auto& [symbol, summary] : f.absint->symbol_summaries) {
      if (f.surface->fingerprints.count(symbol) == 0) {
        // Import binding, not a definition in this file: the provenance of
        // the value lives at its defining module (a binding node would also
        // fabricate a consumer edge that defeats G007 for unused imports).
        continue;
      }
      ProvenanceNode node;
      node.file = path;
      node.symbol = symbol;
      node.summary = summary;
      node.deps = summary.deps;
      auto lines = f.surface->def_lines.find(symbol);
      if (lines != f.surface->def_lines.end()) {
        node.def_lines = lines->second;
      }
      graph.nodes_.emplace(std::make_pair(path, symbol), std::move(node));
    }
    for (const ExportSlice& slice : f.absint->exports) {
      // Conditional entries export the same output path from several branch
      // arms: merge the slices into one node (union deps + def lines).
      ProvenanceNode& node = graph.nodes_[{path, slice.path}];
      node.file = path;
      node.symbol = slice.path;
      for (const auto& [module_path, symbols] : slice.symbols_by_module) {
        node.deps[module_path].insert(symbols.begin(), symbols.end());
      }
      node.def_lines.push_back({slice.line, slice.line});
      node.is_export = true;
    }
    for (const auto& [module_path, symbols] : f.absint->used_symbols) {
      if (module_path == path) {
        continue;  // Self-reads are intra-module, handled below.
      }
      for (const std::string& symbol : symbols) {
        consumed.insert({module_path, symbol});
      }
    }
    // Intra-module def-use: A consuming B keeps B alive.
    for (const auto& [symbol, read_names] : f.surface->reads) {
      for (const std::string& read : read_names) {
        if (read != symbol && f.surface->fingerprints.count(read) > 0) {
          consumed.insert({path, read});
        }
      }
    }
  }

  // -- Gatekeeper nodes + G009 (stale restraint reference). G004 catches an
  // unknown type when the project itself is linted; G009 fires for any
  // project in the *closure*, so shrinking the registry flags every stale
  // reference repo-wide, not just in touched files.
  for (const std::string& path : gk_files) {
    if (!reader) {
      break;
    }
    auto content = reader(path);
    if (!content.ok()) {
      continue;
    }
    auto json = Json::Parse(*content);
    if (!json.ok()) {
      continue;  // Sandcastle's raw validator reports malformed JSON.
    }
    ProvenanceNode node;
    node.file = path;
    const Json* project = json->Get("project");
    node.symbol = project != nullptr && project->is_string()
                      ? project->as_string()
                      : path;
    node.is_gatekeeper = true;
    const Json* rules = json->Get("rules");
    if (rules != nullptr && rules->is_array()) {
      for (const Json& rule : rules->as_array()) {
        const Json* restraints = rule.Get("restraints");
        if (restraints == nullptr || !restraints->is_array()) {
          continue;
        }
        for (const Json& spec : restraints->as_array()) {
          const Json* type = spec.Get("type");
          if (type == nullptr || !type->is_string()) {
            continue;
          }
          const std::string& type_name = type->as_string();
          node.deps["restraints"].insert(type_name);
          for (const std::string& field : registry.ContextFields(type_name)) {
            node.deps["context"].insert(field);
          }
          if (type_name == "laser") {
            const Json* params = spec.Get("params");
            const Json* laser_project =
                params != nullptr ? params->Get("project") : nullptr;
            if (laser_project != nullptr && laser_project->is_string()) {
              node.deps["laser"].insert(laser_project->as_string());
            }
          }
          if (!known_type(type_name)) {
            graph.findings_.push_back(MakeFinding(
                "G009", LintSeverity::kError, path, 0,
                "project '" + node.symbol + "' references restraint type '" +
                    type_name + "' that is no longer in the RestraintRegistry",
                "remove the restraint or restore the type"));
          }
        }
      }
    }
    graph.nodes_.emplace(std::make_pair(path, node.symbol), std::move(node));
  }

  // -- Reverse edges.
  for (const auto& [key, node] : graph.nodes_) {
    for (const auto& [module_path, symbols] : node.deps) {
      for (const std::string& symbol : symbols) {
        graph.dependents_[{module_path, symbol}].insert(key);
      }
    }
  }

  // -- G010 (shadowed import): a later top-level import rebinding a name an
  // earlier import from a *different* module already bound. The classic
  // hazard is a star import growing a new symbol that silently shadows a
  // specific earlier import (or vice versa).
  for (const auto& [path, f] : facts) {
    auto module = AnalysisStore::Units(store)->GetOrParse(path, f.content);
    if (!module.ok()) {
      continue;
    }
    std::map<std::string, std::string> bound_by;  // name -> source module.
    for (const StmtPtr& stmt : (*module)->body) {
      if (stmt->kind != Stmt::Kind::kExpr || stmt->target == nullptr ||
          !IsImportCall(*stmt->target)) {
        continue;
      }
      ImportTarget target = ClassifyImport(*stmt->target);
      if (target.kind != ImportTarget::Kind::kModule) {
        continue;  // Schemas bind into a separate env; dynamic is unsound
                   // already (absint flagged it).
      }
      std::set<std::string> bound_names;
      if (target.filter != "*") {
        bound_names.insert(target.filter);
      } else {
        auto it = facts.find(target.path);
        if (it == facts.end() || !it->second.surface->analyzable) {
          continue;  // Unresolvable star target: absint marked unsound.
        }
        for (const auto& [name, fp] : it->second.surface->fingerprints) {
          bound_names.insert(name);
        }
      }
      for (const std::string& name : bound_names) {
        auto it = bound_by.find(name);
        if (it != bound_by.end() && it->second != target.path) {
          graph.findings_.push_back(MakeFinding(
              "G010", LintSeverity::kError, path, target.line,
              "import from '" + target.path + "' rebinds '" + name +
                  "' already bound by the import of '" + it->second + "'",
              "rename the symbol or drop one of the imports"));
        }
        bound_by[name] = target.path;
      }
    }
  }

  // -- G007 (dead export): a module symbol nothing in the graph consumes.
  // Needs complete fan-in, so it is suppressed when any slice was unsound.
  if (graph.sound_) {
    for (const auto& [key, node] : graph.nodes_) {
      if (!key.first.ends_with(".cinc") || node.is_export ||
          node.is_gatekeeper) {
        continue;  // Entries' own symbols are theirs to keep.
      }
      if (consumed.count(key) > 0 ||
          graph.dependents_.count(key) > 0) {
        continue;
      }
      int line = node.def_lines.empty() ? 0 : node.def_lines.front().first;
      graph.findings_.push_back(MakeFinding(
          "G007", LintSeverity::kWarning, key.first, line,
          "module symbol '" + key.second +
              "' has no consumer anywhere in the repository",
          "delete it or export it from an entry"));
    }
  }

  SortDiagnostics(&graph.findings_);
  return graph;
}

const ProvenanceNode* ProvenanceGraph::Find(const std::string& file,
                                            const std::string& symbol) const {
  auto it = nodes_.find({file, symbol});
  return it == nodes_.end() ? nullptr : &it->second;
}

std::set<std::pair<std::string, std::string>> ProvenanceGraph::Dependents(
    const std::string& file, const std::string& symbol) const {
  auto it = dependents_.find({file, symbol});
  return it == dependents_.end()
             ? std::set<std::pair<std::string, std::string>>{}
             : it->second;
}

std::vector<std::string> ProvenanceGraph::SymbolsAtLine(const std::string& file,
                                                        int line) const {
  std::vector<std::string> out;
  for (auto it = nodes_.lower_bound({file, std::string()});
       it != nodes_.end() && it->first.first == file; ++it) {
    for (const auto& [first, last] : it->second.def_lines) {
      if (line >= first && line <= last) {
        out.push_back(it->first.second);
        break;
      }
    }
  }
  return out;
}

}  // namespace configerator
